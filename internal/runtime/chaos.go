package runtime

import (
	"fmt"

	"repro/internal/chaos"
)

// registerChaosInjectors wires the fault kinds the runtime owns into the
// controller (DESIGN.md §13). Registration is soft (RegisterDefault), so
// a harness that registered its own injector for a kind — e.g. to crash
// a real kv server process it owns — always wins. The controller calls
// Inject/Revert from the barrier's last arriver, one at a time, so the
// closures need no synchronization beyond what the touched subsystems
// already provide.
//
// Kinds wired here:
//
//   - Brownout: degrade the PFS (extra latency, jitter, transient read
//     failures). Revert restores health (the zero Fault).
//   - Straggler: lag (+jitter, +errors) on one node's peer-cache
//     serving, via the distribution manager.
//   - CacheCrash: wipe one node's cache as a process loss — payloads
//     dropped, directory repaired atomically (nodeCache.crash) — and
//     take its peer serving down until the event reverts ("restart").
//     The node's own training continues on a cold cache.
//   - SlowDecode: per-job decode latency on one node's preprocessing
//     pool.
//
// ShardCrash and ConnDrop are not wired: the runtime has no handle on
// the kv servers behind its cluster client; the harness that owns them
// registers those injectors (see internal/experiments).
func (rt *Runtime) registerChaosInjectors(c *chaos.Controller) {
	c.RegisterDefault(chaos.KindBrownout, chaos.Funcs(
		func(ev chaos.Event) error {
			rt.pfs.SetFault(ev.Fault)
			return nil
		},
		func(chaos.Event) error {
			rt.pfs.SetFault(chaos.Fault{})
			return nil
		}))
	c.RegisterDefault(chaos.KindStraggler, chaos.Funcs(
		func(ev chaos.Event) error {
			if err := rt.checkNode(ev); err != nil {
				return err
			}
			rt.dm.SetNodeFault(ev.Target, ev.Fault)
			return nil
		},
		func(ev chaos.Event) error {
			rt.dm.SetNodeFault(ev.Target, chaos.Fault{})
			return nil
		}))
	c.RegisterDefault(chaos.KindCacheCrash, chaos.Funcs(
		func(ev chaos.Event) error {
			if err := rt.checkNode(ev); err != nil {
				return err
			}
			// Down first, wipe second: a peer that wins the race sees
			// either a down node (nil fetch -> failover) or a repaired
			// directory (no holder -> PFS); never a promised copy served
			// from a wiped cache.
			rt.dm.SetNodeDown(ev.Target, true)
			rt.nodes[ev.Target].cache.crash()
			return nil
		},
		func(ev chaos.Event) error {
			// "Restart": peer serving returns; the cache refills through
			// the node's own demand misses and prefetcher.
			rt.dm.SetNodeDown(ev.Target, false)
			return nil
		}))
	c.RegisterDefault(chaos.KindSlowDecode, chaos.Funcs(
		func(ev chaos.Event) error {
			if err := rt.checkNode(ev); err != nil {
				return err
			}
			rt.nodes[ev.Target].pre.SetDecodeDelay(ev.Fault.Lag, ev.Fault.Jitter, ev.Fault.Seed)
			return nil
		},
		func(ev chaos.Event) error {
			rt.nodes[ev.Target].pre.SetDecodeDelay(0, 0, 0)
			return nil
		}))
}

// checkNode bounds-checks an event's node target.
func (rt *Runtime) checkNode(ev chaos.Event) error {
	if ev.Target >= len(rt.nodes) {
		return fmt.Errorf("runtime: %s target %d out of range (%d nodes)", ev.Kind, ev.Target, len(rt.nodes))
	}
	return nil
}

// Kvcache: the paper notes Lobster "works in general for other DNN
// training scenarios as well (e.g., ... alternatives to distributed
// caching like for example KV-stores)". This example swaps the
// node-to-node distribution manager for a sharded TCP key-value cluster:
// three real KV servers on loopback become the shared cache tier between
// the node caches and the PFS, and the same verified online training runs
// on top.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/kvstore"
	"repro/internal/runtime"
)

func main() {
	// Start three KV shards (real TCP servers, ephemeral ports).
	var addrs []string
	var servers []*kvstore.Server
	for i := 0; i < 3; i++ {
		s, err := kvstore.NewServer("127.0.0.1:0", 64<<20)
		if err != nil {
			log.Fatal(err)
		}
		defer s.Close()
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	cluster, err := kvstore.NewCluster(addrs, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	fmt.Println("KV cluster shards:")
	for i, a := range addrs {
		fmt.Printf("  shard %d at %s\n", i, a)
	}

	cfg, err := experiments.NewConfig(experiments.Workload{
		Dataset:  "imagenet-1k",
		Scale:    "tiny",
		Model:    "resnet50",
		Nodes:    2,
		Epochs:   2,
		Strategy: "lobster",
	})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := runtime.Run(runtime.Options{
		Topology:  cfg.Topology,
		Dataset:   cfg.Dataset,
		Model:     cfg.Model,
		Epochs:    cfg.Epochs,
		Seed:      cfg.Seed,
		Strategy:  cfg.Strategy,
		TimeScale: 0.002,
		KVCache:   cluster,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Printf("training done in %v: %d samples, all verified: %v\n",
		stats.WallTime, stats.SamplesLoaded, stats.SamplesVerified == stats.SamplesLoaded)
	fmt.Printf("local hit ratio %.1f%%, KV-tier hits %d, PFS reads %d\n",
		stats.HitRatio()*100, stats.RemoteHits, stats.PFSReads)

	st, err := cluster.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d items, %.1f MB, %d hits, %d misses, %d evictions\n",
		st.Items, float64(st.UsedBytes)/1e6, st.Hits, st.Misses, st.Evictions)
	for i, s := range servers {
		ss := s.Stats()
		fmt.Printf("  shard %d: %d items, %d hits\n", i, ss.Items, ss.Hits)
	}
}

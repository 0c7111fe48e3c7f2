package pipeline

import "fmt"

// The NUMA model: where a node's loading and preprocessing threads sit on
// its sockets, and what that placement costs.
//
// Section 5.2(b) attributes part of Lobster's advantage over DALI to the
// fact that "Lobster is NUMA-aware, and co-locates data loading and
// preprocessing threads": a sample fetched by a loader thread on socket 0
// that is decoded by a preprocessing thread on socket 1 pays an
// inter-socket hop for every byte, eating into the memory bandwidth
// Observation 3 showed preprocessing is bound by. applyNUMA computes, for
// a thread assignment, which fraction of the loaded bytes crosses sockets
// and charges the corresponding throughput penalty.

// numaPlacement assigns each GPU's loading threads and the preprocessing
// pool to NUMA domains.
type numaPlacement struct {
	Domains int
	// LoadingDomain[j][d] is how many of GPU j's loading threads sit on
	// domain d.
	LoadingDomain [][]int
	// PreprocDomain[d] is how many preprocessing threads sit on domain d.
	PreprocDomain []int
}

// assignNUMA places loading threads (per GPU) and preprocessing threads
// onto `domains` sockets with `perDomain` thread slots each.
//
// aware=true is Lobster's placement: GPUs are partitioned across domains
// and each domain receives preprocessing threads in proportion to the
// loading threads it hosts, so a loaded sample is decoded where it
// landed. aware=false is the naive placement of the baselines: loading
// threads pack into domains from the bottom up and the preprocessing pool
// packs from the bottom up independently — whatever overlap results is
// incidental.
func assignNUMA(domains, perDomain int, loading []int, preproc int, aware bool) (numaPlacement, error) {
	if domains < 1 || perDomain < 1 {
		return numaPlacement{}, fmt.Errorf("pipeline: invalid NUMA shape %d domains x %d threads", domains, perDomain)
	}
	p := numaPlacement{
		Domains:       domains,
		LoadingDomain: make([][]int, len(loading)),
		PreprocDomain: make([]int, domains),
	}
	for j := range p.LoadingDomain {
		p.LoadingDomain[j] = make([]int, domains)
	}
	free := make([]int, domains)
	for d := range free {
		free[d] = perDomain
	}

	place := func(j, n int, preferred int) {
		// Fill the preferred domain first, then spill round-robin.
		for d := 0; d < domains && n > 0; d++ {
			dd := (preferred + d) % domains
			take := n
			if take > free[dd] {
				take = free[dd]
			}
			p.LoadingDomain[j][dd] += take
			free[dd] -= take
			n -= take
		}
		// Oversubscription beyond all slots lands on the preferred domain
		// (time-sharing; the placement stays well-defined).
		if n > 0 {
			p.LoadingDomain[j][preferred] += n
		}
	}

	if aware {
		// When the whole pipeline fits on one socket, co-locate everything
		// there — no traffic can cross at all.
		totalLoading := 0
		for _, n := range loading {
			totalLoading += n
		}
		if totalLoading+preproc <= perDomain {
			for j, n := range loading {
				p.LoadingDomain[j][0] = n
			}
			p.PreprocDomain[0] = preproc
			return p, nil
		}
		// Partition GPUs across domains: GPU j prefers domain
		// j*domains/len(loading).
		for j, n := range loading {
			pref := 0
			if len(loading) > 0 {
				pref = j * domains / len(loading)
			}
			place(j, n, pref)
		}
		// Preprocessing proportional to the loading threads per domain.
		loadPerDomain := make([]int, domains)
		totalLoad := 0
		for j := range p.LoadingDomain {
			for d, n := range p.LoadingDomain[j] {
				loadPerDomain[d] += n
				totalLoad += n
			}
		}
		assigned := 0
		for d := 0; d < domains; d++ {
			share := preproc / domains
			if totalLoad > 0 {
				share = preproc * loadPerDomain[d] / totalLoad
			}
			p.PreprocDomain[d] = share
			assigned += share
		}
		for d := 0; assigned < preproc; d = (d + 1) % domains {
			p.PreprocDomain[d]++
			assigned++
		}
	} else {
		// Naive: everything packs bottom-up.
		for j, n := range loading {
			place(j, n, 0)
		}
		left := preproc
		for d := 0; d < domains && left > 0; d++ {
			take := left
			if take > free[d] {
				take = free[d]
			}
			if d == domains-1 && take < left {
				take = left // spill the remainder onto the last socket
			}
			p.PreprocDomain[d] += take
			left -= take
		}
	}
	return p, nil
}

// crossTrafficFraction returns the fraction of loaded bytes whose
// preprocessing happens on a different domain than the load. Bytes arrive
// on domains in proportion to each GPU's loading threads there, and are
// decoded on domains in proportion to the preprocessing threads — the
// mismatch between the two distributions is the cross-socket traffic.
func crossTrafficFraction(p numaPlacement, perGPUBytes []int64) float64 {
	if p.Domains <= 1 {
		return 0
	}
	var totalBytes float64
	arrive := make([]float64, p.Domains)
	for j, b := range perGPUBytes {
		if j >= len(p.LoadingDomain) {
			break
		}
		loadTotal := 0
		for _, n := range p.LoadingDomain[j] {
			loadTotal += n
		}
		if loadTotal == 0 {
			continue
		}
		for d, n := range p.LoadingDomain[j] {
			arrive[d] += float64(b) * float64(n) / float64(loadTotal)
		}
		totalBytes += float64(b)
	}
	if totalBytes == 0 {
		return 0
	}
	preTotal := 0
	for _, n := range p.PreprocDomain {
		preTotal += n
	}
	if preTotal == 0 {
		return 0
	}
	// Optimal matching of arrivals to decode capacity: local decode up to
	// min(arrivals_d, capacity share_d); the rest crosses.
	local := 0.0
	for d := 0; d < p.Domains; d++ {
		capShare := totalBytes * float64(p.PreprocDomain[d]) / float64(preTotal)
		if arrive[d] < capShare {
			local += arrive[d]
		} else {
			local += capShare
		}
	}
	return 1 - local/totalBytes
}

// numaPenalty converts a cross-traffic fraction into a multiplicative
// preprocessing-throughput factor: each crossing byte is read once over
// the inter-socket link (default model: crossing bytes are ~35% slower to
// stream, so throughput scales by 1/(1 + 0.35*fraction)).
func numaPenalty(crossFraction float64) float64 {
	const interSocketSlowdown = 0.35
	return 1 / (1 + interSocketSlowdown*crossFraction)
}

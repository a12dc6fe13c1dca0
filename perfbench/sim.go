package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"affinityaccept"
)

// The fixed simulator configuration the traced runs time: the paper's
// Affinity-Accept serving lighttpd on 2 cores of its AMD machine,
// saturated (32 connections per core, no think time) for 15 ms of
// warm-up and 15 ms measured. One call takes about 15 ms, and its
// simulated request count varies by under 3% across seeds.
func simConfig(seed int64) affinityaccept.RunConfig {
	return affinityaccept.RunConfig{
		Cores:        2,
		Listen:       affinityaccept.AffinityAccept,
		Server:       affinityaccept.Lighttpd,
		ConnsPerCore: 32,
		ThinkMS:      -1,
		WarmupS:      0.015,
		MeasureS:     0.015,
		Seed:         seed,
	}
}

// simGoldenSeed's Requests count is recorded: every traced run
// re-checks it, so a change to the simulator's results shows as a
// failure, not as a speed-up.
const (
	simGoldenSeed     = 1
	simGoldenRequests = 553
	// simCalls is how many timed Simulate calls a traced run makes.
	simCalls = 60
)

// simOutcome is the comparable part of a simulation result: every
// measured field, none of the pointers.
type simOutcome struct {
	Cores, ConnsPerCore                            int
	Requests                                       uint64
	ReqPerSec, ReqPerSecPerCore, ConnsPerSec       float64
	GbitsPerSec, IdleFrac, TotalPerReq, IdlePerReq float64
	LockSpinWait, LockMutexWait, LockHold          float64
}

func outcomeOf(r affinityaccept.RunResult) simOutcome {
	return simOutcome{
		Cores: r.Cores, ConnsPerCore: r.ConnsPerCore, Requests: r.Requests,
		ReqPerSec: r.ReqPerSec, ReqPerSecPerCore: r.ReqPerSecPerCore, ConnsPerSec: r.ConnsPerSec,
		GbitsPerSec: r.GbitsPerSec, IdleFrac: r.IdleFrac, TotalPerReq: r.TotalPerReq, IdlePerReq: r.IdlePerReq,
		LockSpinWait: r.LockSpinWait, LockMutexWait: r.LockMutexWait, LockHold: r.LockHold,
	}
}

// simLayer times the simulator (internal/sim with its memory, TCP and
// NIC models) in the load-generator process, after a traced run's
// window: a golden-seed check, then simCalls calls at the run's seed,
// each checked against the first. Each call starts from a collected
// heap, so its GC work does not depend on where the previous call left
// the pacer. Every call counts as an attempt; a wrong result fails it.
func simLayer(res *result, seed int64) {
	res.attempted++
	if got := affinityaccept.Simulate(simConfig(simGoldenSeed)).Requests; got != simGoldenRequests {
		res.failed++
		fmt.Fprintf(os.Stderr, "sim golden check: seed %d simulated %d requests, recorded %d\n", simGoldenSeed, got, simGoldenRequests)
	}
	want := outcomeOf(affinityaccept.Simulate(simConfig(seed)))
	var ms0, ms1 runtime.MemStats
	var alloc, gcs uint64
	durs := make([]int64, 0, simCalls)
	for i := 0; i < simCalls; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		got := outcomeOf(affinityaccept.Simulate(simConfig(seed)))
		durs = append(durs, time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		res.attempted++
		if got != want {
			res.failed++
			fmt.Fprintf(os.Stderr, "sim repetition differs: %+v, first %+v\n", got, want)
		}
	}
	run := summarize(durs)
	res.add("sim.run_s", float64(run.P50)/1e9, "s", fmt.Sprintf("median Simulate call, n=%d, %d simulated requests each", run.N, want.Requests))
	res.add("sim.alloc_mb_per_run", float64(alloc)/(1<<20)/simCalls, "MB", fmt.Sprintf("TotalAlloc delta within %d calls", simCalls))
	res.add("sim.gc_per_run", float64(gcs)/simCalls, "count", fmt.Sprintf("%d GCs within %d calls", gcs, simCalls))
}

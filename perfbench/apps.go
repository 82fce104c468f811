package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"safemem/internal/apps"
	"safemem/internal/bench"
	"safemem/internal/telemetry"
)

// appsWorkload is the Table 3 path: one caller running bench.Run over the
// op list, whole cycles at a time.
type appsWorkload struct {
	ops []appOp
	d   *digests
}

func newApps(seed int64, d *digests) *appsWorkload {
	return &appsWorkload{ops: appsOps(seed), d: d}
}

func runApp(op appOp) (*bench.Result, error) {
	return bench.Run(op.App, op.Tool, apps.Config{Scale: 1, Seed: op.Seed})
}

func (w *appsWorkload) warm() error {
	for _, op := range w.ops {
		r, err := runApp(op)
		if err := w.d.checkApp(op, r, err); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// appRun is one timed bench.Run.
type appRun struct {
	op    appOp
	res   *bench.Result
	start time.Time
	wall  time.Duration
}

// loop runs whole cycles of the op list until d has passed, calling each
// for every op.
func (w *appsWorkload) loop(d time.Duration, each func(appRun)) *phase {
	p := &phase{}
	cpu0, start := selfCPU(), time.Now()
	for time.Since(start) < d {
		c, cstart := cycleTally{}, time.Now()
		for _, op := range w.ops {
			t0 := time.Now()
			r, err := runApp(op)
			dt := time.Since(t0)
			p.attempted++
			if err := w.d.checkApp(op, r, err); err != nil {
				p.failed++
				fmt.Printf("failed op: %v\n", err)
				continue
			}
			p.lat = append(p.lat, float64(dt.Nanoseconds())/1e6)
			c.ops++
			c.scenarios++
			c.simCycles += float64(r.Cycles)
			if each != nil {
				each(appRun{op, r, t0, dt})
			}
		}
		c.secs = time.Since(cstart).Seconds()
		p.cycles = append(p.cycles, c)
	}
	p.cpu = selfCPU() - cpu0
	return p
}

func (w *appsWorkload) timed(d time.Duration) (*phase, error) { return w.loop(d, nil), nil }

func (w *appsWorkload) liveHeapMB() (float64, error) { return selfLiveHeapMB() }

func (w *appsWorkload) close() error { return nil }

// traced runs half the window untraced and half under a CPU profile with
// spans, then one counter cycle with per-run telemetry registries.
func (w *appsWorkload) traced(d time.Duration, m map[string]float64, spans *spanLog) (*phase, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	a := w.loop(d/2, nil)
	runtime.ReadMemStats(&ms1)
	goRuntimeMetrics(m, &ms0, &ms1, len(a.lat))

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var hostNS, instrs float64
	var sim, harness []float64
	trace := 0
	b := w.loop(d/2, func(r appRun) {
		end := r.start.Add(r.wall)
		spans.add(trace, "bench.Run", "", r.start, end)
		spans.add(trace, "machine.Run", "bench.Run", end.Add(-time.Duration(r.res.HostNS)), end)
		trace++
		hostNS += float64(r.res.HostNS)
		instrs += float64(r.res.Instrs)
		sim = append(sim, float64(r.res.HostNS)/1e6)
		harness = append(harness, float64(r.wall.Nanoseconds()-r.res.HostNS)/1e6)
	})
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		m["cpu_share."+l] = v
	}
	if m["go.peak_rss_mb"], err = peakRSSMB(0); err != nil {
		return nil, err
	}
	m["machine.ns_per_instr"] = hostNS / instrs
	m["bench.sim_ms"] = median(sim)
	m["bench.harness_ms"] = median(harness)
	m["trace.overhead_pct"] = (median(b.lat)/median(a.lat) - 1) * 100

	c, err := w.counters(m)
	if err != nil {
		return nil, err
	}
	a.add(b)
	a.attempted += c.attempted
	a.failed += c.failed
	return a, nil
}

// counters runs one cycle with a telemetry registry per run (so the
// machine is not recycled before its counters are read) and derives the
// counter metrics from the results.
func (w *appsWorkload) counters(m map[string]float64) (*phase, error) {
	defer func() { bench.Telemetry = nil }()
	p := &phase{}
	reg := map[string]float64{}
	var hits, misses, watch, ecc float64
	cycles := map[string]map[bench.Tool]float64{}
	for _, op := range w.ops {
		bench.Telemetry = telemetry.NewSession(telemetry.Config{})
		r, err := runApp(op)
		p.attempted++
		if err := w.d.checkApp(op, r, err); err != nil {
			p.failed++
			fmt.Printf("failed op: %v\n", err)
			continue
		}
		for _, v := range r.Registry.Snapshot() {
			reg[v.Name] += v.Value
		}
		hits += float64(r.Cache.Hits)
		misses += float64(r.Cache.Misses)
		watch += float64(r.Kern.WatchCalls)
		ecc += float64(r.Kern.ECCFaultsHandled)
		k := fmt.Sprintf("%s/%d", op.App, op.Seed)
		if cycles[k] == nil {
			cycles[k] = map[bench.Tool]float64{}
		}
		cycles[k][op.Tool] = float64(r.Cycles)
	}
	n := float64(len(w.ops))
	m["machine.batch_fast_frac"] = frac(reg["batch_fast_ops"], reg["batch_slow_ops"])
	m["vm.tlb_hit_frac"] = frac(reg["tlb_hits"], reg["tlb_misses"])
	m["cache.hit_frac"] = frac(hits, misses)
	m["kernel.watch_calls"] = watch / n
	m["kernel.ecc_faults"] = ecc / n
	var none, sm, sample float64
	for _, c := range cycles {
		none += c[bench.ToolNone]
		sm += c[bench.ToolSafeMemBoth]
		sample += c[bench.ToolSample]
	}
	m["sim.overhead_pct.safemem"] = (sm/none - 1) * 100
	m["sim.overhead_pct.sample"] = (sample/none - 1) * 100
	return p, nil
}

// frac is a/(a+b), 0 when both are 0.
func frac(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// goRuntimeMetrics fills the Go-runtime metrics of this process from two
// MemStats readings around ops operations.
func goRuntimeMetrics(m map[string]float64, before, after *runtime.MemStats, ops int) {
	m["go.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(ops)
	m["go.gc_cpu_frac"] = after.GCCPUFraction
}

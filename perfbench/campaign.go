package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"safemem/internal/campaign"
)

// campaignWorkload is the safemem-fuzz path: one caller running
// campaign.Run over consecutive base seeds.
type campaignWorkload struct {
	ops []uint64
	d   *digests
}

func newCampaign(seed int64, d *digests) *campaignWorkload {
	return &campaignWorkload{ops: campaignOps(seed), d: d}
}

func (w *campaignWorkload) warm() error {
	for _, base := range w.ops {
		s, err := campaign.Run(campaignConfig(base))
		if err := w.d.checkCampaign(base, s, err); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// loop runs whole cycles of the op list until d has passed. It returns
// the tally and the violations each base seed's summary reported.
func (w *campaignWorkload) loop(d time.Duration) (*phase, map[uint64]int) {
	p := &phase{}
	violations := map[uint64]int{}
	cpu0, start := selfCPU(), time.Now()
	for time.Since(start) < d {
		c, cstart := cycleTally{}, time.Now()
		for _, base := range w.ops {
			t0 := time.Now()
			s, err := campaign.Run(campaignConfig(base))
			dt := time.Since(t0)
			p.attempted++
			if err := w.d.checkCampaign(base, s, err); err != nil {
				p.failed++
				fmt.Printf("failed op: %v\n", err)
				continue
			}
			p.lat = append(p.lat, float64(dt.Nanoseconds())/1e6)
			c.ops++
			c.scenarios += float64(s.ScenariosRun)
			for _, cs := range s.Configs {
				c.simCycles += float64(cs.TotalCycles)
			}
			violations[base] = len(s.Violations)
		}
		c.secs = time.Since(cstart).Seconds()
		p.cycles = append(p.cycles, c)
	}
	p.cpu = selfCPU() - cpu0
	return p, violations
}

func (w *campaignWorkload) timed(d time.Duration) (*phase, error) {
	p, _ := w.loop(d)
	return p, nil
}

func (w *campaignWorkload) liveHeapMB() (float64, error) { return selfLiveHeapMB() }

func (w *campaignWorkload) close() error { return nil }

// traced runs half the window untraced and half under a CPU profile, then
// replays one cycle of the same scenarios through the campaign's public
// steps (SubSeed → Generate → ExecuteEnv per config → Judge) with a span
// around each.
func (w *campaignWorkload) traced(d time.Duration, m map[string]float64, spans *spanLog) (*phase, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	a, _ := w.loop(d / 2)
	runtime.ReadMemStats(&ms1)
	goRuntimeMetrics(m, &ms0, &ms1, len(a.lat))

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	b, violations := w.loop(d / 2)
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
	m["trace.overhead_pct"] = (median(b.lat)/median(a.lat) - 1) * 100

	parts := durations{}
	total := 0
	for i, base := range w.ops {
		n, err := replay(i, base, parts, spans)
		if err != nil {
			return nil, err
		}
		b.attempted++
		if n != violations[base] {
			b.failed++
			fmt.Printf("failed op: replay of base seed %d found %d violations, campaign.Run %d\n", base, n, violations[base])
		}
		total += n
	}
	ops := float64(len(w.ops))
	perOp := func(name string) float64 { return sum(parts[name]) / ops }
	m["campaign.generate_us"] = perOp("generate") * 1e3
	m["campaign.judge_us"] = perOp("judge") * 1e3
	replayed := perOp("generate") + perOp("judge")
	for _, tc := range append([]campaign.ToolConfig{campaign.CfgNone}, campaignTools...) {
		ms := perOp("execute." + tc.String())
		m["campaign.execute_ms."+tc.String()] = ms
		replayed += ms
	}
	// The op ran its scenarios on campaignShards workers; what the replayed
	// steps do not cover, spread over those workers, is the campaign
	// harness itself (sharding, aggregation, flight events).
	m["campaign.other_ms"] = mean(b.lat) - replayed/campaignShards
	m["campaign.violations"] = float64(total)
	a.add(b)
	return a, nil
}

// replay runs one campaign op's scenarios step by step, sequentially,
// adding each step's time to parts, and returns the violations found.
func replay(trace int, base uint64, parts durations, spans *spanLog) (int, error) {
	violations := 0
	opStart := time.Now()
	for i := 0; i < campaignSeeds; i++ {
		t0 := time.Now()
		s := campaign.Generate(campaign.SubSeed(base, i))
		t1 := time.Now()
		spans.add(trace, "campaign.generate", "campaign.op", t0, t1)
		parts.add("generate", t1.Sub(t0))

		exec := func(tc campaign.ToolConfig) (*campaign.ExecResult, error) {
			t0 := time.Now()
			r, err := campaign.ExecuteEnv(s, tc, campaign.Env{})
			t1 := time.Now()
			spans.add(trace, "campaign.execute."+tc.String(), "campaign.op", t0, t1)
			parts.add("execute."+tc.String(), t1.Sub(t0))
			return r, err
		}
		if _, err := exec(campaign.CfgNone); err != nil {
			return 0, err
		}
		for _, tc := range campaignTools {
			r, err := exec(tc)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			v := campaign.Judge(s, tc, r)
			t1 := time.Now()
			spans.add(trace, "campaign.judge", "campaign.op", t0, t1)
			parts.add("judge", t1.Sub(t0))
			violations += len(v.Violations)
		}
	}
	spans.add(trace, "campaign.op", "", opStart, time.Now())
	return violations, nil
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload in a fresh process for a fixed number of seconds, checks every
// operation's deterministic output against the digests kept beside it
// (digests.json), and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads (see NOTES.md for why each was chosen):
//
//	apps      bench.Run over 7 apps × {none, safemem, sample}, one caller
//	campaign  campaign.Run{Seeds: 64, Shards: 2}, one caller
//	serve     scenario jobs through a safemem-serve child, two callers
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs a
// separate traced pass and reports the per-layer breakdown instead.
//
// Build and run it through run.sh, which builds the binaries under
// .bench_build/:
//
//	bash perfbench/run.sh --workload apps --seed 1 --seconds 20 --trace 0
//
// -regen-digests recomputes digests.json; that is only legitimate when the
// simulated semantics change on purpose.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// maxRun bounds one benchmark process: past it, the run kills its
// children and fails instead of hanging.
const maxRun = 170 * time.Second

// metricDef is one reported metric.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, reported on every
// workload by an untraced run. None of them is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"live_heap_mb", "MB"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"scenarios_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
}

// cpuLayers are the layers a CPU profile is grouped into: the
// safemem/internal packages worth a share of their own, plus the Go
// runtime, the HTTP and JSON libraries, and everything else.
var cpuLayers = []string{
	"machine", "cache", "vm", "simtime", "physmem", "memctrl", "ecc",
	"kernel", "heap", "callstack", "core", "sampletool", "faultmodel",
	"inject", "apps", "bench", "campaign", "fleet", "obsrv", "telemetry",
	"http_json", "runtime", "other",
}

// perLayer are the metrics of the traced run. A workload that does not
// exercise a layer reports 0 for its metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"machine.ns_per_instr", "ns"},
		{"machine.batch_fast_frac", "fraction"},
		{"vm.tlb_hit_frac", "fraction"},
		{"cache.hit_frac", "fraction"},
		{"bench.sim_ms", "ms"},
		{"bench.harness_ms", "ms"},
		{"kernel.watch_calls", "count"},
		{"kernel.ecc_faults", "count"},
		{"memctrl.corrected", "count"},
		{"go.alloc_mb_per_op", "MB"},
		{"go.peak_rss_mb", "MB"},
		{"go.gc_cpu_frac", "fraction"},
		{"campaign.generate_us", "us"},
		{"campaign.execute_ms.none", "ms"},
		{"campaign.execute_ms.ml", "ms"},
		{"campaign.execute_ms.mc", "ms"},
		{"campaign.execute_ms.both", "ms"},
		{"campaign.execute_ms.sample", "ms"},
		{"campaign.judge_us", "us"},
		{"campaign.other_ms", "ms"},
		{"campaign.violations", "count"},
		{"http.submit_ms", "ms"},
		{"fleet.queue_wait_ms", "ms"},
		{"fleet.run_ms", "ms"},
		{"fleet.notify_ms", "ms"},
		{"sse.gap_events", "count"},
		{"sim.overhead_pct.safemem", "%"},
		{"sim.overhead_pct.sample", "%"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "fraction"})
	}
	return defs
}()

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	serveBin string
	workdir  string
}

// phase is the tally of one timed window.
type phase struct {
	lat       []float64 // per-op latency, ms, of the ops that succeeded
	attempted int
	failed    int
	cpu       time.Duration // CPU of the process doing the work
	cycles    []cycleTally  // the window's complete cycles of the op list
}

// cycleTally is the work one complete cycle of the op list finished.
type cycleTally struct {
	secs      float64
	ops       float64 // ops that succeeded
	scenarios float64
	simCycles float64
}

func (p *phase) add(q *phase) {
	p.lat = append(p.lat, q.lat...)
	p.attempted += q.attempted
	p.failed += q.failed
	p.cpu += q.cpu
	p.cycles = append(p.cycles, q.cycles...)
}

// rate is the median over complete cycles of f per second.
func (p *phase) rate(f func(c cycleTally) float64) float64 {
	var rs []float64
	for _, c := range p.cycles {
		rs = append(rs, f(c)/c.secs)
	}
	return median(rs)
}

// workload is one benchmark workload, set up and ready to run.
type workload interface {
	// warm runs one untimed cycle of the op list.
	warm() error
	// timed runs ops for d and tallies them.
	timed(d time.Duration) (*phase, error)
	// traced runs the traced pass for d, filling per-layer metrics.
	traced(d time.Duration, m map[string]float64, spans *spanLog) (*phase, error)
	// liveHeapMB is the Go heap the process doing the work retains: live
	// after two forced GCs, the second of which empties every sync.Pool.
	liveHeapMB() (float64, error)
	close() error
}

func newWorkload(o options, d *digests) (workload, error) {
	switch o.workload {
	case "apps":
		return newApps(o.seed, d), nil
	case "campaign":
		return newCampaign(o.seed, d), nil
	case "serve":
		return newServe(o, d)
	}
	return nil, fmt.Errorf("unknown workload %q (want apps, campaign or serve)", o.workload)
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "apps, campaign or serve")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the op list is a pure function of it")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the timed window")
	traceN := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.serveBin, "serve-bin", "", "safemem-serve binary (serve workload)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the server's files and the span log")
	probe := flag.Bool("probe", false, "internal: set up once, report readiness and exit")
	regen := flag.String("regen-digests", "", "recompute the digests into this file and exit")
	flag.Parse()
	o.trace = *traceN != 0
	if o.serveBin != "" {
		// The server runs in its own directory; keep the path valid there.
		abs, err := filepath.Abs(o.serveBin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		o.serveBin = abs
	}

	stop := time.AfterFunc(maxRun, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %s\n", maxRun)
		killChildren()
		os.Exit(1)
	})
	defer stop.Stop()

	var err error
	switch {
	case *regen != "":
		err = regenDigests(o, *regen)
	case *probe:
		err = runProbe(o)
	default:
		err = run(o, os.Stdout)
	}
	if err != nil {
		killChildren()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// probeReady is the line a probe prints once set up.
const probeReady = "perfbench-probe-ready"

// runProbe is one set-up of the workload in a fresh process: everything
// from process start to the end of one warm-up cycle and a GC.
func runProbe(o options) error {
	d, err := loadDigests()
	if err != nil {
		return err
	}
	w, err := newWorkload(o, d)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return err
	}
	runtime.GC()
	fmt.Println(probeReady)
	return w.close()
}

// setupProbes is how many fresh processes setup_s is the median of.
const setupProbes = 3

// measureSetup times setupProbes fresh probe processes from exec to
// readiness and returns the median in seconds.
func measureSetup(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		t, err := probeOnce(self, o)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		times = append(times, t)
	}
	return median(times), nil
}

func probeOnce(self string, o options) (float64, error) {
	args := []string{"-probe", "-workload", o.workload, "-seed", fmt.Sprint(o.seed),
		"-serve-bin", o.serveBin, "-workdir", o.workdir}
	cmd := child(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := startChild(cmd); err != nil {
		return 0, err
	}
	ready := false
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if sc.Text() == probeReady {
			ready = true
			break
		}
	}
	elapsed := time.Since(start).Seconds()
	for sc.Scan() {
	}
	if err := waitChild(cmd); err != nil {
		return 0, err
	}
	if !ready {
		return 0, fmt.Errorf("probe exited without becoming ready")
	}
	return elapsed, nil
}

// run is one benchmark run: set-up, the timed or traced window, and the
// result lines.
func run(o options, stdout io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	d, err := loadDigests()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	setup := 0.0
	if !o.trace {
		if setup, err = measureSetup(o); err != nil {
			return err
		}
	}
	w, err := newWorkload(o, d)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.warm(); err != nil {
		return err
	}
	runtime.GC()

	window := time.Duration(o.seconds) * time.Second
	metrics := map[string]float64{}
	var defs []metricDef
	var p *phase
	if o.trace {
		spans := &spanLog{}
		if p, err = w.traced(window, metrics, spans); err != nil {
			return err
		}
		path := fmt.Sprintf("%s/spans-%s-%d.jsonl", o.workdir, o.workload, o.seed)
		if err := spans.write(path); err != nil {
			return err
		}
		defs = perLayer
	} else {
		if p, err = w.timed(window); err != nil {
			return err
		}
		heap, err := w.liveHeapMB()
		if err != nil {
			return err
		}
		endToEndMetrics(metrics, p, setup, heap)
		defs = endToEnd
	}
	if err := w.close(); err != nil {
		return err
	}
	return report(stdout, o, defs, metrics, p)
}

// endToEndMetrics fills the end-to-end metrics from one timed window.
// Rates are medians over the window's complete cycles of the op list, so a
// transient stall on a shared host moves one cycle, not the result.
func endToEndMetrics(m map[string]float64, p *phase, setup, heapMB float64) {
	m["setup_s"] = setup
	m["op_p50_ms"] = percentile(p.lat, 50)
	m["op_p90_ms"] = percentile(p.lat, 90)
	m["cpu_ms_per_op"] = float64(p.cpu.Microseconds()) / 1e3 / float64(len(p.lat))
	m["live_heap_mb"] = heapMB
	m["sim_mcycles_per_s"] = p.rate(func(c cycleTally) float64 { return c.simCycles }) / 1e6
	m["scenarios_per_s"] = p.rate(func(c cycleTally) float64 { return c.scenarios })
	m["jobs_per_s"] = p.rate(func(c cycleTally) float64 { return c.ops })
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the host stamp, one line per metric, and the result JSON
// as the last line.
func report(w io.Writer, o options, defs []metricDef, m map[string]float64, p *phase) error {
	stamp, err := json.Marshal(hostStamp())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "host %s\n", stamp)
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v ops %d cycles %d\n",
		o.workload, o.seed, o.seconds, o.trace, len(p.lat), len(p.cycles))
	res := result{
		Correct:   p.failed == 0 && p.attempted > 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v := m[d.Name]
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	var extra []string
	for k := range m {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return fmt.Errorf("internal: unlisted metrics %s", strings.Join(extra, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// host identifies the machine and build a result came from.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostStamp() host {
	h := host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Commit += "+dirty"
				}
			}
		}
	}
	return h
}

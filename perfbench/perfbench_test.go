package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

func TestOpListsArePureFunctionsOfSeed(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{0, 1, 7, 12345} {
		if !reflect.DeepEqual(appsOps(seed), appsOps(seed)) ||
			!reflect.DeepEqual(campaignOps(seed), campaignOps(seed)) ||
			!reflect.DeepEqual(serveOps(seed), serveOps(seed)) {
			t.Fatalf("seed %d: op lists differ between calls", seed)
		}
		for _, op := range appsOps(seed) {
			if _, ok := d.Apps[op.key()]; !ok {
				t.Fatalf("seed %d: app op %s has no digest", seed, op.key())
			}
		}
	}
	if reflect.DeepEqual(appsOps(1), appsOps(2)) || reflect.DeepEqual(campaignOps(1), campaignOps(2)) ||
		reflect.DeepEqual(serveOps(1), serveOps(2)) {
		t.Fatal("different seeds gave the same op lists")
	}
	if n := len(appsOps(1)); n != len(appNames)*len(appTools)*appSeedsPerList {
		t.Fatalf("apps cycle has %d ops", n)
	}
}

// tampered returns a copy of the digests with every entry wrong.
func tampered(t *testing.T) *digests {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range d.Apps {
		v.Cycles++
		d.Apps[k] = v
	}
	for i := range d.Campaign {
		d.Campaign[i] = "0"
	}
	for i := range d.Serve {
		d.Serve[i] = "0"
	}
	return d
}

func TestWrongDigestCountsAsFailed(t *testing.T) {
	bad := tampered(t)
	a := &appsWorkload{ops: []appOp{{"gzip", appTools[0], 1}}, d: bad}
	if p := a.loop(time.Millisecond, nil); p.attempted != 1 || p.failed != 1 || len(p.lat) != 0 {
		t.Fatalf("apps: attempted %d failed %d timed %d, want 1 1 0", p.attempted, p.failed, len(p.lat))
	}
	c := &campaignWorkload{ops: []uint64{0}, d: bad}
	if p, _ := c.loop(time.Millisecond); p.attempted != 1 || p.failed != 1 {
		t.Fatalf("campaign: attempted %d failed %d, want 1 1", p.attempted, p.failed)
	}
	good, _ := loadDigests()
	j := serveOps(1)[0]
	if err := bad.checkJob(j, "done", []byte("{}")); err == nil {
		t.Fatal("serve: wrong digest accepted")
	}
	if err := good.checkJob(j, "failed", nil); err == nil {
		t.Fatal("serve: a failed job accepted")
	}
}

// TestSmoke runs one cycle of every workload against the recorded digests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if err := newApps(1, d).warm(); err != nil {
		t.Fatal(err)
	}
	if err := newCampaign(1, d).warm(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "safemem-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "safemem/cmd/safemem-serve").CombinedOutput(); err != nil {
		t.Fatalf("building safemem-serve: %v\n%s", err, out)
	}
	s, err := newServe(options{seed: 1, serveBin: bin, workdir: dir}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	p, opOf := s.loop(0, len(s.ops), nil)
	if err := s.verify(p, opOf); err != nil {
		t.Fatal(err)
	}
	if p.failed != 0 || p.attempted != len(s.ops) || len(p.cycles) != 1 || p.cycles[0].simCycles == 0 {
		t.Fatalf("serve: attempted %d failed %d cycles %+v", p.attempted, p.failed, p.cycles)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
}

// TestEventGapFallsBackToPolling serves an /events stream whose job-done
// event was dropped: the waiter must learn the job ended from GET /jobs/{id}
// after the sequence gap, well before its own poll timer.
func TestEventGapFallsBackToPolling(t *testing.T) {
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "id: 1\nevent: job-admitted\ndata: {\"fields\":{\"job\":7}}\n\n")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, ": keepalive\n\nid: 3\nevent: job-admitted\ndata: {\"fields\":{\"job\":8}}\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	mux.HandleFunc("/jobs/7", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":7,"state":"done"}`)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	c := newClient()
	e, err := openEvents(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	go func() {
		for {
			e.mu.Lock()
			_, ok := e.waiting[7]
			e.mu.Unlock()
			if ok {
				close(release)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start := time.Now()
	r := e.wait(7, c)
	if r.state != "done" {
		t.Fatalf("state %q, want done", r.state)
	}
	if waited := time.Since(start); waited >= jobPollAfter {
		t.Fatalf("waited %s: the gap did not trigger a poll", waited)
	}
	if g := e.gaps.Load(); g != 1 {
		t.Fatalf("%d gaps counted, want 1", g)
	}
}

func TestCPUSharesAttributeLayers(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	d, _ := loadDigests()
	a := newApps(1, d)
	a.ops = a.ops[:0]
	for _, op := range appsOps(1) {
		if op.App == "squid1" {
			a.ops = append(a.ops, op)
		}
	}
	a.loop(300*time.Millisecond, nil)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("shares sum to %g", sum)
	}
	// Under the race detector its own runtime takes most samples, so only
	// the order of the simulator's packages is checked.
	for _, l := range cpuLayers {
		switch l {
		case "runtime", "http_json", "other":
			continue
		}
		if shares[l] > shares["machine"] {
			t.Fatalf("%s outweighs machine in an app run's CPU; shares %v", l, shares)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"safemem/internal/cache.(*Cache).findIdx", "main.main"}, "cache"},
		{[]string{"runtime.mallocgc", "safemem/internal/vm.New"}, "runtime"},
		{[]string{"strconv.Itoa", "safemem/internal/kernel.(*Kernel).Watch"}, "kernel"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "safemem/internal/obsrv.handleEvents"}, "http_json"},
		{[]string{"safemem/internal/obsrv/flight.(*Recorder).Emit"}, "obsrv"},
		{[]string{"safemem/internal/stats.Lgamma"}, "other"},
		{[]string{"sort.Slice", "main.run"}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if p := percentile(xs, 50); p != 3 {
		t.Fatalf("p50 %g", p)
	}
	if p := percentile(xs, 90); p != 4.6 {
		t.Fatalf("p90 %g", p)
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty p50 not 0")
	}
}

// TestBenchmarkJSONListsEveryMetric keeps BENCHMARK.json and the metrics
// this program reports in step.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v, reported %v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer %v, reported %v", bj.PerLayer, perLayer)
	}
}

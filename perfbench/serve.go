package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"safemem/internal/campaign"
)

// serveCallers is the closed loop's client count, each on its own
// keep-alive connection.
const serveCallers = 2

// Completion timing. A caller that has heard nothing for jobPollAfter asks
// the server itself; one that has waited jobGiveUp counts the job failed.
const (
	jobPollAfter = time.Second
	jobGiveUp    = 60 * time.Second
)

// serveWorkload drives a safemem-serve child over loopback: callers POST
// scenario jobs and learn completion from one shared /events stream.
type serveWorkload struct {
	ops    []int    // universe indices, one cycle
	bodies [][]byte // POST bodies, parallel to ops
	d      *digests
	srv    *server
	ev     *eventStream
	aux    *http.Client // profiles, MemStats, the job list
}

func newServe(o options, d *digests) (*serveWorkload, error) {
	return newServeOps(o, d, serveOps(o.seed))
}

// newServeOps starts a server and the event stream for the given op list.
func newServeOps(o options, d *digests, ops []int) (*serveWorkload, error) {
	w := &serveWorkload{ops: ops, d: d, aux: newClient()}
	for _, j := range w.ops {
		b, err := json.Marshal(jobSpec(j))
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, b)
	}
	srv, err := startServer(o.serveBin, filepath.Join(o.workdir, "serve"))
	if err != nil {
		return nil, err
	}
	w.srv = srv
	if w.ev, err = openEvents(srv.base); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// newClient returns a client with its own single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// server is a safemem-serve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	pid  int
}

// startServer runs bin with its default flags on a loopback port and
// waits until it serves.
func startServer(bin, dir string) (*server, error) {
	if bin == "" {
		return nil, fmt.Errorf("serve workload needs -serve-bin")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := child(bin, "-addr", "127.0.0.1:0")
	cmd.Dir = dir
	lw := &addrWatcher{found: make(chan string, 1)}
	cmd.Stderr = lw
	if err := startChild(cmd); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, pid: cmd.Process.Pid}
	select {
	case addr := <-lw.found:
		s.base = "http://" + addr
		return s, nil
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("safemem-serve did not report its address")
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain hangs.
func (s *server) stop() error {
	if s == nil || s.cmd == nil {
		return nil
	}
	cmd := s.cmd
	s.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
	done := make(chan error, 1)
	go func() { done <- waitChild(cmd) }()
	select {
	case err := <-done:
		// A drained server exits 130, in the SIGINT tradition.
		var ee *exec.ExitError
		if errors.As(err, &ee) && ee.ExitCode() == 130 {
			return nil
		}
		if err != nil {
			return fmt.Errorf("safemem-serve: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // reaped below
		<-done
		return fmt.Errorf("safemem-serve did not drain within 15s")
	}
}

// addrWatcher consumes the server's log, reporting the address from its
// "fleet serving" line.
type addrWatcher struct {
	mu    sync.Mutex
	buf   []byte
	found chan string
	done  bool
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.done {
		return len(p), nil
	}
	a.buf = append(a.buf, p...)
	for {
		i := bytes.IndexByte(a.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(a.buf[:i])
		a.buf = a.buf[i+1:]
		if !strings.Contains(line, `msg="fleet serving"`) {
			continue
		}
		for _, f := range strings.Fields(line) {
			if addr, ok := strings.CutPrefix(f, "addr="); ok {
				a.found <- addr
				a.done, a.buf = true, nil
				return len(p), nil
			}
		}
	}
}

// jobResult is how a job ended, as a caller learned it.
type jobResult struct {
	state string
	at    time.Time
}

// eventStream follows the server's /events SSE stream and wakes the caller
// waiting for each job. /events drops events for slow subscribers; on a
// sequence-number gap it asks the server directly about every job still
// outstanding.
type eventStream struct {
	base string
	poll *http.Client
	body io.ReadCloser

	mu      sync.Mutex
	waiting map[uint64]chan jobResult
	early   map[uint64]jobResult // finished before their caller waited

	gaps   atomic.Int64
	gapc   chan struct{}
	done   chan struct{}
	closed sync.WaitGroup
}

// terminalKinds are the flight-event kinds that end a job.
var terminalKinds = map[string]string{
	"job-done": "done", "job-crashed": "crashed", "job-failed": "failed", "job-timed-out": "timed-out",
}

func openEvents(base string) (*eventStream, error) {
	resp, err := newClient().Get(base + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("/events: %s", resp.Status)
	}
	e := &eventStream{
		base: base, poll: newClient(), body: resp.Body,
		waiting: map[uint64]chan jobResult{}, early: map[uint64]jobResult{},
		gapc: make(chan struct{}, 1), done: make(chan struct{}),
	}
	e.closed.Add(2)
	go e.read()
	go e.poller()
	return e, nil
}

// close ends the stream and waits for its goroutines.
func (e *eventStream) close() {
	close(e.done)
	e.body.Close()
	e.closed.Wait()
}

func (e *eventStream) read() {
	defer e.closed.Done()
	br := bufio.NewReaderSize(e.body, 64<<10)
	var last uint64
	var kind string
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// An oversized line carries nothing this reader needs.
			for err == bufio.ErrBufferFull {
				_, err = br.ReadSlice('\n')
			}
			continue
		}
		if err != nil {
			return
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0: // end of one event
			kind = ""
		case bytes.HasPrefix(line, []byte("id: ")):
			seq, err := strconv.ParseUint(string(line[4:]), 10, 64)
			if err != nil {
				continue
			}
			if last != 0 && seq > last+1 {
				e.gaps.Add(1)
				select {
				case e.gapc <- struct{}{}:
				default:
				}
			}
			last = seq
		case bytes.HasPrefix(line, []byte("event: ")):
			kind = string(line[7:])
		case bytes.HasPrefix(line, []byte("data: ")):
			state, ok := terminalKinds[kind]
			if !ok {
				continue
			}
			var ev struct {
				Fields struct {
					Job uint64 `json:"job"`
				} `json:"fields"`
			}
			if json.Unmarshal(line[6:], &ev) == nil && ev.Fields.Job != 0 {
				e.deliver(ev.Fields.Job, jobResult{state, time.Now()})
			}
		}
	}
}

// poller answers gaps: every outstanding job is looked up directly.
func (e *eventStream) poller() {
	defer e.closed.Done()
	for {
		select {
		case <-e.done:
			return
		case <-e.gapc:
		}
		e.mu.Lock()
		ids := make([]uint64, 0, len(e.waiting))
		for id := range e.waiting {
			ids = append(ids, id)
		}
		e.mu.Unlock()
		for _, id := range ids {
			if st, err := getState(e.poll, e.base, id); err == nil && st != "" {
				e.deliver(id, jobResult{st, time.Now()})
			}
		}
	}
}

func (e *eventStream) deliver(id uint64, r jobResult) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ch, ok := e.waiting[id]; ok {
		delete(e.waiting, id)
		ch <- r
		return
	}
	if _, ok := e.early[id]; !ok {
		e.early[id] = r
	}
}

// wait blocks until job id ends. It never hangs: silence past
// jobPollAfter makes it ask the server, and past jobGiveUp it gives up.
func (e *eventStream) wait(id uint64, client *http.Client) jobResult {
	e.mu.Lock()
	if r, ok := e.early[id]; ok {
		delete(e.early, id)
		e.mu.Unlock()
		return r
	}
	ch := make(chan jobResult, 1)
	e.waiting[id] = ch
	e.mu.Unlock()

	t := time.NewTimer(jobPollAfter)
	defer t.Stop()
	deadline := time.Now().Add(jobGiveUp)
	for {
		select {
		case r := <-ch:
			return r
		case <-t.C:
		}
		if st, err := getState(client, e.base, id); err == nil && st != "" {
			e.deliver(id, jobResult{st, time.Now()})
			return <-ch
		}
		if time.Now().After(deadline) {
			e.mu.Lock()
			delete(e.waiting, id)
			e.mu.Unlock()
			return jobResult{"hung", time.Now()}
		}
		t.Reset(jobPollAfter)
	}
}

// jobRecord is a job's server-side record.
type jobRecord struct {
	ID          uint64          `json:"id"`
	State       string          `json:"state"`
	Result      json.RawMessage `json:"result"`
	SubmittedNS int64           `json:"submitted_ns"`
	StartedNS   int64           `json:"started_ns"`
	FinishedNS  int64           `json:"finished_ns"`
}

func getJob(c *http.Client, base string, id uint64) (*jobRecord, error) {
	resp, err := c.Get(fmt.Sprintf("%s/jobs/%d", base, id))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return nil, fmt.Errorf("GET /jobs/%d: %s", id, resp.Status)
	}
	var j jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, err
	}
	return &j, nil
}

// getState returns job id's terminal state, or "" while it is live.
func getState(c *http.Client, base string, id uint64) (string, error) {
	j, err := getJob(c, base, id)
	if err != nil {
		return "", err
	}
	switch j.State {
	case "queued", "running", "retrying":
		return "", nil
	}
	return j.State, nil
}

// submit POSTs one job and returns its id.
func (w *serveWorkload) submit(c *http.Client, body []byte) (uint64, error) {
	resp, err := c.Post(w.srv.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
		return 0, fmt.Errorf("POST /jobs: %s", resp.Status)
	}
	var j struct {
		ID uint64 `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining for reuse
	return j.ID, nil
}

// served is one job as a caller saw it.
type served struct {
	op        int // index into ops
	id        uint64
	start     time.Time
	submitted time.Time // POST answered
	res       jobResult
}

// loop runs the closed loop: serveCallers callers take ops in turn until
// d has passed, or, with d zero, until n ops have started. Each op is
// timed from the POST to the caller learning the job ended; each is called
// for every job that ended done. It also returns each submitted job's op
// number, for verify.
func (w *serveWorkload) loop(d time.Duration, n int, each func(c *http.Client, s served)) (*phase, map[uint64]int) {
	p := &phase{}
	var mu sync.Mutex
	opOf := map[uint64]int{}
	var ends []time.Time // by op number
	var ok []bool
	var next atomic.Int64
	cpu0, _ := procCPU(w.srv.pid)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < serveCallers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				k := int(next.Add(1) - 1)
				if (d > 0 && time.Since(start) >= d) || (d == 0 && k >= n) {
					return
				}
				op := k % len(w.ops)
				s := served{op: op, start: time.Now()}
				id, err := w.submit(c, w.bodies[op])
				s.submitted = time.Now()
				if err == nil {
					s.id = id
					s.res = w.ev.wait(id, c)
				}
				end := time.Now()
				good := err == nil && s.res.state == "done"
				mu.Lock()
				p.attempted++
				if good {
					p.lat = append(p.lat, float64(end.Sub(s.start).Nanoseconds())/1e6)
				} else {
					p.failed++
					fmt.Printf("failed op: job %d (universe %d): %v %s\n", id, w.ops[op], err, s.res.state)
				}
				if err == nil {
					opOf[id] = k
				}
				for len(ends) <= k {
					ends, ok = append(ends, time.Time{}), append(ok, false)
				}
				ends[k], ok[k] = end, good
				mu.Unlock()
				if each != nil && good {
					each(c, s)
				}
			}
		}()
	}
	wg.Wait()
	cpu1, _ := procCPU(w.srv.pid)
	p.cpu = cpu1 - cpu0

	// Ops start in order and every started op finished, so ends is dense;
	// a cycle ends when the last of its ops does.
	prev := start
	for c := 0; (c+1)*len(w.ops) <= len(ends); c++ {
		var last time.Time
		var cy cycleTally
		for k := c * len(w.ops); k < (c+1)*len(w.ops); k++ {
			if ends[k].After(last) {
				last = ends[k]
			}
			if ok[k] {
				cy.ops++
				cy.scenarios++
			}
		}
		cy.secs = last.Sub(prev).Seconds()
		prev = last
		p.cycles = append(p.cycles, cy)
	}
	return p, opOf
}

func (w *serveWorkload) warm() error {
	p, _ := w.loop(0, len(w.ops), nil)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed", p.failed, p.attempted)
	}
	return nil
}

// verify fetches the loop's jobs from the server and checks each result
// against its digest, counting mismatches as failed and adding each
// job's simulated cycles to its cycle. It runs after the clock stops.
func (w *serveWorkload) verify(p *phase, opOf map[uint64]int) error {
	jobs, err := w.jobs()
	if err != nil {
		return err
	}
	for _, j := range jobs {
		k, ok := opOf[j.ID]
		if !ok || j.State != "done" { // not this loop's, or counted failed already
			continue
		}
		if err := w.d.checkJob(w.ops[k%len(w.ops)], j.State, j.Result); err != nil {
			p.failed++
			fmt.Printf("failed op: %v\n", err)
			continue
		}
		var r struct {
			Cycles uint64 `json:"cycles"`
		}
		if err := json.Unmarshal(j.Result, &r); err != nil {
			return err
		}
		if c := k / len(w.ops); c < len(p.cycles) {
			p.cycles[c].simCycles += float64(r.Cycles)
		}
	}
	return nil
}

// jobs lists every job the server holds.
func (w *serveWorkload) jobs() ([]jobRecord, error) {
	resp, err := w.aux.Get(w.srv.base + "/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var list struct {
		Jobs []jobRecord `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, fmt.Errorf("GET /jobs: %w", err)
	}
	return list.Jobs, nil
}

func (w *serveWorkload) timed(d time.Duration) (*phase, error) {
	p, opOf := w.loop(d, 0, nil)
	return p, w.verify(p, opOf)
}

func (w *serveWorkload) liveHeapMB() (float64, error) {
	if _, err := w.memStats(true); err != nil { // the first GC moves pools to their victim caches
		return 0, err
	}
	ms, err := w.memStats(true)
	return ms.heapAlloc / (1 << 20), err
}

func (w *serveWorkload) close() error {
	if w.ev != nil {
		w.ev.close()
		w.ev = nil
	}
	return w.srv.stop()
}

// serverMem is the part of the server's runtime.MemStats the benchmark
// reads.
type serverMem struct {
	totalAlloc, heapAlloc, gcCPUFrac float64
}

// memStats reads the server's MemStats from /debug/pprof/heap?debug=1,
// after a forced GC when gc is set.
func (w *serveWorkload) memStats(gc bool) (serverMem, error) {
	var ms serverMem
	url := w.srv.base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	resp, err := w.aux.Get(url)
	if err != nil {
		return ms, err
	}
	defer resp.Body.Close()
	fields := map[string]*float64{
		"# TotalAlloc = ": &ms.totalAlloc, "# HeapAlloc = ": &ms.heapAlloc, "# GCCPUFraction = ": &ms.gcCPUFrac,
	}
	found := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		for prefix, dst := range fields {
			if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				if *dst, err = strconv.ParseFloat(v, 64); err != nil {
					return ms, fmt.Errorf("server MemStats: %w", err)
				}
				found++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return ms, err
	}
	if found != len(fields) {
		return ms, fmt.Errorf("server MemStats: %d of %d fields found", found, len(fields))
	}
	return ms, nil
}

// profile fetches a CPU profile of the server covering the next secs
// seconds.
func (w *serveWorkload) profile(secs int) ([]byte, error) {
	resp, err := w.aux.Get(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", w.srv.base, secs))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/pprof/profile: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// traced runs half the window untraced and half traced: the server is
// CPU-profiled, and every done job is fetched for its server-side
// timestamps. Flaky-DIMM jobs are then replayed in-process for their
// corrected-error counts.
func (w *serveWorkload) traced(d time.Duration, m map[string]float64, spans *spanLog) (*phase, error) {
	ms0, err := w.memStats(false)
	if err != nil {
		return nil, err
	}
	a, err := w.timed(d / 2)
	if err != nil {
		return nil, err
	}
	ms1, err := w.memStats(false)
	if err != nil {
		return nil, err
	}
	m["go.alloc_mb_per_op"] = (ms1.totalAlloc - ms0.totalAlloc) / (1 << 20) / float64(len(a.lat))
	m["go.gc_cpu_frac"] = ms1.gcCPUFrac

	secs := int(d.Seconds() / 2)
	if secs < 1 {
		secs = 1
	}
	profc := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		b, err := w.profile(secs)
		profc <- b
		errc <- err
	}()
	parts := durations{}
	var partsMu sync.Mutex
	var trace atomic.Int64
	b, opOf := w.loop(time.Duration(secs)*time.Second, 0, func(c *http.Client, s served) {
		j, err := getJob(c, w.srv.base, s.id)
		if err != nil {
			return
		}
		sub, st, fin := time.Unix(0, j.SubmittedNS), time.Unix(0, j.StartedNS), time.Unix(0, j.FinishedNS)
		t := int(trace.Add(1))
		spans.add(t, "job", "", s.start, s.res.at)
		spans.add(t, "http.submit", "job", s.start, s.submitted)
		spans.add(t, "fleet.queue_wait", "job", sub, st)
		spans.add(t, "fleet.run", "job", st, fin)
		spans.add(t, "fleet.notify", "job", fin, s.res.at)
		partsMu.Lock()
		parts.add("submit", s.submitted.Sub(s.start))
		parts.add("queue", st.Sub(sub))
		parts.add("run", fin.Sub(st))
		parts.add("notify", s.res.at.Sub(fin))
		partsMu.Unlock()
	})
	prof, perr := <-profc, <-errc
	if perr != nil {
		return nil, perr
	}
	if err := w.verify(b, opOf); err != nil {
		return nil, err
	}
	if m["go.peak_rss_mb"], err = peakRSSMB(w.srv.pid); err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		m["cpu_share."+l] = v
	}
	m["http.submit_ms"] = median(parts["submit"])
	m["fleet.queue_wait_ms"] = median(parts["queue"])
	m["fleet.run_ms"] = median(parts["run"])
	m["fleet.notify_ms"] = median(parts["notify"])
	m["trace.overhead_pct"] = (median(b.lat)/median(a.lat) - 1) * 100
	m["sse.gap_events"] = float64(w.ev.gaps.Load())

	corrected, n, err := replayFlaky(w.ops)
	if err != nil {
		return nil, err
	}
	m["memctrl.corrected"] = corrected / float64(n)
	a.add(b)
	return a, nil
}

// replayFlaky runs the op list's flaky-DIMM jobs in-process through the
// executor the server uses and returns their corrected-error total and
// count.
func replayFlaky(ops []int) (corrected float64, n int, err error) {
	for _, j := range ops {
		spec := jobSpec(j)
		if spec.FaultRate == 0 {
			continue
		}
		tc, err := campaign.ParseToolConfig(spec.Tool)
		if err != nil {
			return 0, 0, err
		}
		env := campaign.Env{FaultRate: spec.FaultRate, Storm: spec.Storm, Retire: spec.Retire}
		r, err := campaign.ExecuteEnv(campaign.Generate(spec.Seed), tc, env)
		if err != nil {
			return 0, 0, err
		}
		corrected += float64(r.Corrected)
		n++
	}
	return corrected, n, nil
}

// serveDigests runs every job of the universe through a server and
// returns the digests of their result bytes.
func serveDigests(o options) ([]string, error) {
	all := make([]int, jobUniverse)
	for i := range all {
		all[i] = i
	}
	w, err := newServeOps(o, nil, all)
	if err != nil {
		return nil, err
	}
	defer w.close()
	p, opOf := w.loop(0, len(all), nil)
	if p.failed > 0 {
		return nil, fmt.Errorf("%d of %d universe jobs failed", p.failed, p.attempted)
	}
	jobs, err := w.jobs()
	if err != nil {
		return nil, err
	}
	out := make([]string, jobUniverse)
	for _, j := range jobs {
		if j.State != "done" {
			return nil, fmt.Errorf("job %d: state %q", j.ID, j.State)
		}
		out[opOf[j.ID]] = resultDigest(j.Result)
	}
	for i, h := range out {
		if h == "" {
			return nil, fmt.Errorf("universe job %d never ran", i)
		}
	}
	return out, w.close()
}

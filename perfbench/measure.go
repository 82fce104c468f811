package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile is the p-th percentile of xs by linear interpolation between
// closest ranks (0 for an empty slice).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// selfLiveHeapMB is this process's live heap after two forced GCs, in
// MiB. Pooled machines survive one GC in a sync.Pool's victim cache, so it
// takes two to leave only what the program retains.
func selfLiveHeapMB() (float64, error) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20), nil
}

// selfCPU is the CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// procCPU is the CPU time process pid has used, from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may contain spaces; the
	// fields after it start with the state (field 3).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB is process pid's peak resident set (VmHWM) in MiB; pid 0 means
// this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// children are the processes this run started and has not yet waited for,
// so a run that fails or overruns can kill them before exiting.
var children struct {
	mu   sync.Mutex
	live map[*exec.Cmd]bool
}

// child prepares a command that dies with this process.
func child(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

func startChild(cmd *exec.Cmd) error {
	if err := cmd.Start(); err != nil {
		return err
	}
	children.mu.Lock()
	if children.live == nil {
		children.live = map[*exec.Cmd]bool{}
	}
	children.live[cmd] = true
	children.mu.Unlock()
	return nil
}

func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	children.mu.Lock()
	delete(children.live, cmd)
	children.mu.Unlock()
	return err
}

// killChildren kills and reaps every live child.
func killChildren() {
	children.mu.Lock()
	live := children.live
	children.live = nil
	children.mu.Unlock()
	for cmd := range live {
		cmd.Process.Kill() //nolint:errcheck // it may have exited already
		cmd.Wait()         //nolint:errcheck // reaping only
	}
}

// span is one timed interval of the traced run, named by the layer it
// covers. Spans of one op share a trace id.
type span struct {
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps the traced run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(trace int, name, parent string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{trace, name, parent, start.UnixNano(), end.UnixNano()})
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations collects named samples in milliseconds.
type durations map[string][]float64

func (d durations) add(name string, dt time.Duration) {
	d[name] = append(d[name], float64(dt.Nanoseconds())/1e6)
}

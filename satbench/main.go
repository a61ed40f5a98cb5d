// Command satbench is the repository's end-to-end benchmark. It runs
// satserved in-process on a loopback listener over a fresh store, drives
// POST /v1/sample with closed-loop clients, checks every delivered
// solution, and prints the end-to-end metrics of one workload. With
// -trace 1 it runs the workload again with client-side spans, replays each
// request in-process through the layers' public functions, and prints the
// per-layer metrics instead.
//
//	bash satbench/run.sh --workload warm-first --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: warm-first, warm-bulk or cold-mix")
	seed := flag.Int64("seed", 1, "seed every formula, pin set and request seed derives from")
	seconds := flag.Int("seconds", 25, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch stores and span files")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "satbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	fmt.Printf("# satbench workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# server: %s\n", serverConfigNote)
	ctx := context.Background()
	dur := time.Duration(*seconds) * time.Second
	var rep report
	var err error
	if *trace == 1 {
		rep, err = traceRun(ctx, *workdir, *name, *seed, dur)
	} else {
		rep, err = timedRun(ctx, *workdir, *name, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "satbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// setupReps is how many times a timed run sets up; setup_s is the median.
const setupReps = 3

// coldItemsPerSecond sizes cold-mix's per-client item pool: a client
// stops early if it sends more items than this per second of window.
const coldItemsPerSecond = 10

// session is a set-up server with its workload and client.
type session struct {
	ls *liveServer
	cl *client
	w  *workload
}

func (s *session) stop() {
	s.cl.close()
	s.ls.stop()
}

// setup starts a fresh server over a fresh store directory, generates the
// workload's inputs from the seed, and compiles what the workload expects
// compiled by posting it through the HTTP API: the warm instances, or
// cold-mix's warm-up items.
func setup(ctx context.Context, workdir, name string, seed int64, dur time.Duration) (*session, time.Duration, error) {
	t0 := time.Now()
	dir, err := scratchDir(workdir, "store")
	if err != nil {
		return nil, 0, err
	}
	w, err := newWorkload(name, seed, coldWarmup+coldItemsPerSecond*int(dur.Seconds()+1))
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	ls, err := startServer(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, 0, err
	}
	s := &session{ls: ls, cl: newClient(ls.base, w.Clients), w: w}
	for _, rq := range w.setupPosts() {
		r := s.cl.do(ctx, 0, rq)
		if r.Err == "" && r.Meta.Key != rq.Inst.Key {
			r.Err = fmt.Sprintf("meta key %.12s, want %.12s", r.Meta.Key, rq.Inst.Key)
		}
		if r.Err != "" {
			s.stop()
			return nil, 0, fmt.Errorf("set-up compile of %s: %s", rq.Inst.Name, r.Err)
		}
	}
	return s, time.Since(t0), nil
}

// window runs the workload's closed loop against s for dur (or, with
// limit set, exactly the items below limit) and reads the /metrics
// counters around it.
func window(ctx context.Context, s *session, dur time.Duration, limit []int, tr *tracer) (res []*result, wall time.Duration, before, after map[string]float64, err error) {
	if before, err = s.cl.scrape(ctx); err != nil {
		return
	}
	var deadline time.Time
	start := time.Now()
	if limit == nil {
		deadline = start.Add(dur)
		limit = make([]int, s.w.Clients)
		for c := range limit {
			limit[c] = s.w.numItems(c)
		}
	}
	res = runItems(ctx, s.cl, s.w, deadline, limit, tr)
	wall = time.Since(start)
	after, err = s.cl.scrape(ctx)
	return
}

// timedRun is the untraced run: repeated set-up, one timed window, the
// output check, and the end-to-end metrics.
func timedRun(ctx context.Context, workdir, name string, seed int64, dur time.Duration) (report, error) {
	var s *session
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		var err error
		if s, d, err = setup(ctx, workdir, name, seed, dur); err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
	}
	res, wall, before, after, err := window(ctx, s, dur, nil, nil)
	s.stop()
	if err != nil {
		return report{}, err
	}
	checkOutputs(res)
	bad := selfCheck(s.w, res, before, after)
	rep := endToEnd(res, wall)
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rss, err := peakRSSMB()
	if err != nil {
		return report{}, err
	}
	rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	rep.Correct = rep.Correct && len(bad) == 0
	printReport(name, res, wall, rep, bad)
	return rep, nil
}

// endToEnd computes the end-to-end metrics of one window. Latencies and
// rates count served requests only; the rest are reported as failed.
func endToEnd(res []*result, wall time.Duration) report {
	var ttfs, reqs []float64
	sols, served := 0, 0
	correct := true
	for _, r := range res {
		sols += r.NumSols
		correct = correct && len(r.Bad) == 0
		if !r.ok() {
			continue
		}
		served++
		reqs = append(reqs, ms(r.DoneAt))
		if r.NumSols > 0 {
			ttfs = append(ttfs, ms(r.FirstAt))
		}
	}
	return report{
		Correct:   correct && served > 0,
		Attempted: len(res),
		Failed:    len(res) - served,
		Metrics: map[string]metric{
			"sol_per_s":      {float64(sols) / wall.Seconds(), "1/s"},
			"ttfs_p50_ms":    {quantile(ttfs, 0.5), "ms"},
			"ttfs_p90_ms":    {quantile(ttfs, 0.9), "ms"},
			"request_p50_ms": {quantile(reqs, 0.5), "ms"},
			"request_p90_ms": {quantile(reqs, 0.9), "ms"},
			"requests_per_s": {float64(served) / wall.Seconds(), "1/s"},
		},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printReport prints the human-readable summary: every metric by name and
// unit, the error fraction, the request mix, and any violations. The error
// fraction is not a JSON metric: it reads 0 on a healthy run, and the
// JSON's failed count carries it.
func printReport(name string, res []*result, wall time.Duration, rep report, bad []string) {
	legs := map[string]int{}
	for _, r := range res {
		legs[r.Req.Leg]++
		for _, b := range r.Bad {
			bad = append(bad, fmt.Sprintf("request %d (%s %s): %s", r.ID, r.Req.Leg, r.Req.Inst.Name, b))
		}
		if r.Err != "" {
			fmt.Printf("# request %d (%s %s) failed: %s\n", r.ID, r.Req.Leg, r.Req.Inst.Name, r.Err)
		}
	}
	fmt.Printf("# %s: %d requests %v in %.3fs\n", name, len(res), legs, wall.Seconds())
	printMetrics(name, rep.Metrics)
	fmt.Printf("%s error_frac %.6g frac\n", name, float64(rep.Failed)/float64(max(rep.Attempted, 1)))
	for i, b := range bad {
		if i == 20 {
			fmt.Printf("# ... %d more violations\n", len(bad)-i)
			break
		}
		fmt.Printf("# VIOLATION %s\n", b)
	}
}

// printMetrics prints one "workload name value unit" line per metric.
func printMetrics(name string, metrics map[string]metric) {
	keys := make([]string, 0, len(metrics))
	for k := range metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s %s %.6g %s\n", name, k, metrics[k].Value, metrics[k].Unit)
	}
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// Command paperbench regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark suite:
//
//	paperbench -exp table2            # Table II: throughput, 14 instances
//	paperbench -exp scale             # multi-core scaling: sol/s at 1/4/16 workers
//	paperbench -exp fig2              # Fig. 2: latency vs unique solutions, 60 instances
//	paperbench -exp fig3              # Fig. 3: learning curve + memory model
//	paperbench -exp fig4              # Fig. 4: device speedup, ops reduction, transform time
//	paperbench -exp engine            # compiled-engine shape: fusion, registers, memory
//	paperbench -exp sched             # continuous-batch scheduler vs round mode
//	paperbench -exp cache             # durable compile tier: cold compile vs store load vs warm hit
//	paperbench -exp serve             # satserved load generator: p50/p99 latency, sol/s vs clients
//	paperbench -exp quality           # exact-count coverage + chi-square uniformity oracle
//	paperbench -exp assume            # assumption specialization: re-specialize vs cold compile + conditioned quality
//	paperbench -exp all               # everything
//
// Flags -target, -timeout, -workers scale effort; the defaults finish in
// minutes rather than the paper's 2-hour timeouts (see EXPERIMENTS.md).
// -csv switches the output to CSV for plotting. -json PATH additionally
// writes every measured row (instance, sol/s, ticks/rounds, cache
// counters) as machine-readable JSON, so CI can archive the perf
// trajectory across commits. -checksched exits non-zero unless the
// continuous scheduler's sol/s is at least round mode's on the small
// smoke instances — the regression gate for the scheduler. -checkscale
// exits non-zero unless the 4-worker arm reaches 3x the 1-worker arm on
// at least two instances (speedup leg skipped below 4 host CPUs) and
// solution streams stay bit-identical across worker counts — the
// regression gate for the multi-core tick. -checkcache exits non-zero
// unless loading a stored problem beats cold compilation by at least 5x
// on at least two instances — the regression gate for the GDSP codec and
// the durable compile tier. -checkassume exits non-zero unless
// re-specializing a compiled artifact under pinned literals beats cold
// compilation 5x on at least two Table II instances AND the specialized
// sampler achieves full conditioned coverage plus the uniformity smoke on
// the exactly-countable suite — the regression gate for ?assume=.
//
// All experiments share one sampling.Compiler, so each instance is
// transformed and engine-compiled once for the whole run (fig3, fig4 and
// engine reuse table2's compilations under -exp all). SIGINT cancels the
// in-flight sampling run and renders whatever rows completed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

// report is the -json output: one object per run holding whichever
// experiments executed plus the shared compile-cache counters.
type report struct {
	Schema  string `json:"schema"` // "paperbench/v1"
	Suite   string `json:"suite"`  // "full" or "small"
	Target  int    `json:"target"`
	Timeout string `json:"timeout"`
	Workers int    `json:"workers"`
	// HostCPUs is runtime.NumCPU() on the measuring host — the context a
	// scale curve must be read in (a 1-CPU runner measures a flat curve).
	HostCPUs int                 `json:"host_cpus"`
	GoOS     string              `json:"goos"`
	GoArch   string              `json:"goarch"`
	Table2   []harness.Table2Row `json:"table2,omitempty"`
	Scale    []harness.ScaleRow  `json:"scale,omitempty"`
	Sched    []harness.SchedRow  `json:"sched,omitempty"`
	Serve    []ServeRow          `json:"serve,omitempty"`
	Quality  []QualityRow        `json:"quality,omitempty"`
	Assume   []harness.AssumeRow `json:"assume,omitempty"`
	Fig2     []harness.Fig2Point `json:"fig2,omitempty"`
	Fig4     []harness.Fig4Row   `json:"fig4,omitempty"`
	// CacheTier is the durable-compile-tier comparison (-exp cache);
	// Cache is the shared in-memory compile cache's counters for the run.
	CacheTier []harness.CacheRow     `json:"cache_tier,omitempty"`
	Cache     sampling.CompilerStats `json:"cache"`
}

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment: table2 | scale | fig2 | fig3 | fig4 | engine | sched | serve | quality | cache | assume | all")
		target      = flag.Int("target", 1000, "minimum unique solutions per sampler (paper: 1000)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-sampler per-instance timeout (paper: 2h)")
		workers     = flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
		csv         = flag.Bool("csv", false, "emit CSV instead of text tables")
		small       = flag.Bool("small", false, "use the fast 4-instance smoke suite")
		jsonPath    = flag.String("json", "", "write machine-readable results to this file")
		checkSched  = flag.Bool("checksched", false, "with -exp sched: fail unless continuous sol/s >= round sol/s on the small smoke instances")
		checkScale  = flag.Bool("checkscale", false, "with -exp scale: fail unless the 4-worker arm reaches 3x on at least two instances (skipped below 4 host CPUs) and all streams stay identical")
		checkQual   = flag.Bool("checkquality", false, "with -exp quality: fail unless every exact-counted instance hits full coverage and passes the uniformity smoke")
		checkCache  = flag.Bool("checkcache", false, "with -exp cache: fail unless store load beats cold compile 5x on at least two instances")
		checkAssume = flag.Bool("checkassume", false, "with -exp assume: fail unless specialization beats cold compile 5x on at least two Table II instances and conditioned quality holds")
		maxCNF      = flag.Int64("maxcnf", 8<<20, "with -exp serve: maximum DIMACS input bytes for the in-process server (0 = the service default limits)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dev := tensor.Parallel()
	if *workers > 0 {
		dev = tensor.ParallelN(*workers)
	}
	compiler := sampling.NewCompiler(0)
	opt := harness.RunOptions{Target: *target, Timeout: *timeout, Device: dev, Compiler: compiler}

	table2Set := benchgen.Table2Instances
	fig2Set := benchgen.Suite60
	figSet := benchgen.Fig4Instances
	schedSet := benchgen.SmallSuite
	suite := "full"
	if *small {
		table2Set = benchgen.SmallSuite
		fig2Set = benchgen.SmallSuite
		figSet = benchgen.SmallSuite
		suite = "small"
	}

	rep := &report{
		Schema:  "paperbench/v1",
		Suite:   suite,
		Target:  *target,
		Timeout: timeout.String(),
		Workers: dev.Workers(),
		GoOS:    runtime.GOOS,
		GoArch:  runtime.GOARCH,
	}

	rep.HostCPUs = runtime.NumCPU()

	schedOK, serveOK, qualOK, scaleOK, cacheOK, assumeOK := true, true, true, true, true, true
	switch *exp {
	case "table2":
		rep.Table2 = runTable2(ctx, table2Set(), opt, *csv)
	case "scale":
		rep.Scale, scaleOK = runScale(ctx, table2Set(), opt, *checkScale)
	case "fig2":
		rep.Fig2 = runFig2(ctx, fig2Set(), opt, *csv)
	case "fig3":
		runFig3(ctx, figSet(), opt)
	case "fig4":
		rep.Fig4 = runFig4(ctx, figSet(), opt)
	case "engine":
		runEngine(ctx, figSet(), compiler, dev)
	case "sched":
		rep.Sched, schedOK = runSched(ctx, schedSet(), opt, *checkSched)
	case "cache":
		rep.CacheTier, cacheOK = runCache(ctx, table2Set(), opt, *checkCache)
	case "serve":
		rep.Serve, serveOK = runServe(ctx, compiler, dev, min(*target, 200), *maxCNF)
	case "quality":
		rep.Quality, qualOK = runQuality(ctx, compiler, dev, *checkQual)
	case "assume":
		rep.Assume, assumeOK = runAssume(ctx, table2Set(), opt, *checkAssume)
	case "all":
		rep.Table2 = runTable2(ctx, table2Set(), opt, *csv)
		fmt.Println()
		rep.Scale, scaleOK = runScale(ctx, table2Set(), opt, *checkScale)
		fmt.Println()
		rep.Fig2 = runFig2(ctx, fig2Set(), opt, *csv)
		fmt.Println()
		runFig3(ctx, figSet(), opt)
		fmt.Println()
		rep.Fig4 = runFig4(ctx, figSet(), opt)
		fmt.Println()
		rep.Sched, schedOK = runSched(ctx, schedSet(), opt, *checkSched)
		fmt.Println()
		rep.CacheTier, cacheOK = runCache(ctx, table2Set(), opt, *checkCache)
		fmt.Println()
		rep.Serve, serveOK = runServe(ctx, compiler, dev, min(*target, 200), *maxCNF)
		fmt.Println()
		rep.Quality, qualOK = runQuality(ctx, compiler, dev, *checkQual)
		fmt.Println()
		rep.Assume, assumeOK = runAssume(ctx, table2Set(), opt, *checkAssume)
		fmt.Println()
		runEngine(ctx, figSet(), compiler, dev)
	default:
		fmt.Fprintf(os.Stderr, "paperbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
	rep.Cache = compiler.Stats()
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, rep); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote %s\n", *jsonPath)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "paperbench: interrupted — rendered partial results")
	}
	if !schedOK {
		fmt.Fprintln(os.Stderr, "paperbench: scheduler check FAILED — continuous mode slower than round mode")
		os.Exit(1)
	}
	if !serveOK {
		fmt.Fprintln(os.Stderr, "paperbench: serve check FAILED — load generator completed no successful requests or saw errors")
		os.Exit(1)
	}
	if !qualOK {
		fmt.Fprintln(os.Stderr, "paperbench: quality check FAILED — coverage or uniformity below the checked-in floor")
		os.Exit(1)
	}
	if !scaleOK {
		fmt.Fprintln(os.Stderr, "paperbench: scale check FAILED — multi-core speedup or stream identity below the gate")
		os.Exit(1)
	}
	if !cacheOK {
		fmt.Fprintln(os.Stderr, "paperbench: cache check FAILED — store load not decisively faster than cold compilation")
		os.Exit(1)
	}
	if !assumeOK {
		fmt.Fprintln(os.Stderr, "paperbench: assume check FAILED — specialization speedup or conditioned quality below the gate")
		os.Exit(1)
	}
}

func writeJSON(path string, rep *report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func runTable2(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions, csv bool) []harness.Table2Row {
	fmt.Printf("== Table II: unique-solution throughput (target %d, timeout %v) ==\n\n",
		opt.Target, opt.Timeout)
	rows := harness.RunTable2(ctx, ins, opt)
	if csv {
		harness.RenderTable2CSV(os.Stdout, rows)
		return rows
	}
	harness.RenderTable2(os.Stdout, rows)
	return rows
}

func runFig2(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions, csv bool) []harness.Fig2Point {
	fmt.Printf("== Fig. 2: latency vs unique solutions (%d instances) ==\n\n", len(ins))
	pts := harness.RunFig2(ctx, ins, []int{10, 100, 1000}, opt)
	if csv {
		harness.RenderFig2CSV(os.Stdout, pts)
		return pts
	}
	harness.RenderFig2(os.Stdout, pts)
	return pts
}

func runFig3(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions) {
	fmt.Println("== Fig. 3: learning dynamics and memory scaling ==")
	fmt.Println()
	res := harness.RunFig3(ctx, ins, 10, []int{100, 1000, 10000, 100000, 1000000}, opt)
	harness.RenderFig3(os.Stdout, res)
}

func runFig4(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions) []harness.Fig4Row {
	fmt.Println("== Fig. 4: device ablation, ops reduction, transformation time ==")
	fmt.Println()
	rows := harness.RunFig4(ctx, ins, opt)
	harness.RenderFig4(os.Stdout, rows)
	return rows
}

// scaleWorkerCounts is the scaling curve's x-axis: sequential reference,
// a typical CI runner, and a typical many-core workstation.
var scaleWorkerCounts = []int{1, 4, 16}

// runScale measures the parallel tick's worker scaling (fixed batch,
// same seed per arm, one compiled problem per instance). With check set,
// the 4-worker arm must reach 3x the 1-worker arm on at least two
// instances and every row's streams must agree solution by solution over
// a non-empty common prefix — the multi-core regression gate. Speedup can
// only materialize when the host has the cores: below 4 CPUs the gate
// degrades to the stream-identity check and reports the speedup leg as
// skipped instead of failing on hardware the curve cannot exist on.
func runScale(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions, check bool) ([]harness.ScaleRow, bool) {
	fmt.Printf("== Scale: worker-count scaling of the parallel tick (target %d, timeout %v) ==\n\n",
		opt.Target, opt.Timeout)
	rows := harness.RunScale(ctx, ins, scaleWorkerCounts, 2, opt)
	harness.RenderScale(os.Stdout, rows)
	if !check {
		return rows, true
	}
	ok := true
	for _, r := range rows {
		if !r.Identical {
			fmt.Fprintf(os.Stderr, "paperbench: %s: solution streams diverged across worker counts\n", r.Instance)
			ok = false
		}
		if r.Prefix == 0 {
			fmt.Fprintf(os.Stderr, "paperbench: %s: an arm delivered no solutions, so stream identity went unchecked\n", r.Instance)
			ok = false
		}
	}
	if runtime.NumCPU() < 4 {
		fmt.Fprintf(os.Stderr, "paperbench: -checkscale speedup leg SKIPPED — host has %d CPUs, need >= 4\n",
			runtime.NumCPU())
		return rows, ok
	}
	const wantSpeedup, wantInstances = 3.0, 2
	fast := 0
	for _, r := range rows {
		for _, a := range r.Arms {
			if a.Workers == 4 && a.SolS > 0 && a.Speedup >= wantSpeedup {
				fast++
			}
		}
	}
	if fast < wantInstances {
		fmt.Fprintf(os.Stderr, "paperbench: only %d instances reached %.0fx at 4 workers, need >= %d\n",
			fast, wantSpeedup, wantInstances)
		ok = false
	}
	return rows, ok
}

// runSched measures the continuous-batch scheduler against the legacy
// round-synchronous loop (same compiled problem, seed and batch per
// instance). With check set, it requires continuous sol/s >= round sol/s
// on every instance of the small smoke suite present in the run — the CI
// regression gate for the scheduler. Three repeats per mode keep the best
// arm, damping machine noise on sub-millisecond instances.
func runSched(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions, check bool) ([]harness.SchedRow, bool) {
	fmt.Printf("== Scheduler: continuous batching vs round barrier (target %d, timeout %v) ==\n\n",
		opt.Target, opt.Timeout)
	rows := harness.RunSched(ctx, ins, 3, opt)
	harness.RenderSched(os.Stdout, rows)
	if !check {
		return rows, true
	}
	smoke := map[string]bool{}
	for _, in := range benchgen.SmallSuite() {
		smoke[in.Name] = true
	}
	ok, checked := true, 0
	for _, r := range rows {
		if !smoke[r.Instance] {
			continue
		}
		checked++
		// Both arms must have actually measured something: a cancelled or
		// failed run reports 0 sol/s on both sides, and 0 >= 0 must not
		// count as the scheduler passing its regression gate.
		if r.ContSolS <= 0 || r.RoundSolS <= 0 {
			fmt.Fprintf(os.Stderr, "paperbench: %s: mode not measured (cont %.0f, round %.0f sol/s)\n",
				r.Instance, r.ContSolS, r.RoundSolS)
			ok = false
			continue
		}
		if r.ContSolS < r.RoundSolS {
			fmt.Fprintf(os.Stderr, "paperbench: %s: continuous %.0f sol/s < round %.0f sol/s\n",
				r.Instance, r.ContSolS, r.RoundSolS)
			ok = false
		}
	}
	if checked < 2 {
		fmt.Fprintf(os.Stderr, "paperbench: -checksched needs at least two smoke instances, got %d\n", checked)
		ok = false
	}
	return rows, ok
}

// runCache measures the durable compile tier: per instance, the cold
// transform-and-compile time, the time to load the same problem back from
// a content-addressed store (read + GDSP decode), and the in-memory warm
// hit. The store lives in a throwaway directory — the experiment measures
// the codec, not a shared deployment. With check set, store load must beat
// cold compile by 5x on at least two instances (tiny instances compile in
// microseconds, where the constant per-file cost hides the codec's win).
func runCache(ctx context.Context, ins []*benchgen.Instance, opt harness.RunOptions, check bool) ([]harness.CacheRow, bool) {
	fmt.Println("== Cache: durable compile tier — cold compile vs store load vs warm hit ==")
	fmt.Println()
	dir, err := os.MkdirTemp("", "paperbench-store-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: cache store:", err)
		return nil, !check
	}
	defer os.RemoveAll(dir)
	rows, err := harness.RunCache(ctx, ins, dir, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench: cache run:", err)
		return nil, !check
	}
	harness.RenderCache(os.Stdout, rows)
	if !check {
		return rows, true
	}
	const wantSpeedup, wantInstances = 5.0, 2
	fast := 0
	for _, r := range rows {
		if r.Speedup >= wantSpeedup {
			fast++
		}
	}
	if fast < wantInstances {
		fmt.Fprintf(os.Stderr, "paperbench: only %d instances loaded %.0fx faster than cold compile, need >= %d\n",
			fast, wantSpeedup, wantInstances)
		return rows, false
	}
	return rows, true
}

// runEngine reports the compiled execution engine's shape per instance:
// fused kernel count, value slots after inverter fusion + dead-code
// elimination, adjoint registers after backward-liveness allocation, the
// cache tile, and the Fig. 3 memory model at two batch sizes. Problems
// come from the shared compiler — under -exp all this is pure cache hits.
func runEngine(ctx context.Context, ins []*benchgen.Instance, compiler *sampling.Compiler, dev tensor.Device) {
	fmt.Println("== Execution engine: fusion, register allocation, memory model ==")
	fmt.Println()
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %6s %12s %12s\n",
		"instance", "inputs", "gates", "ops", "slots", "gregs", "tile", "MB@4096", "MB@1M")
	for _, in := range ins {
		if ctx.Err() != nil {
			break
		}
		p, err := compiler.Compile(in.Formula)
		if err != nil {
			fmt.Printf("%-22s compile failed: %v\n", in.Name, err)
			continue
		}
		s, err := p.Core().NewSampler(core.Config{BatchSize: 4096, Device: dev})
		if err != nil {
			fmt.Printf("%-22s sampler failed: %v\n", in.Name, err)
			continue
		}
		es := s.EngineStats()
		fmt.Printf("%-22s %8d %8d %8d %8d %8d %6d %12.2f %12.1f\n",
			in.Name, es.Inputs, p.Extraction().Circuit.NumGates(), es.Ops, es.ValSlots, es.GradRegs, es.Tile,
			float64(s.MemoryEstimate(4096))/(1<<20), float64(s.MemoryEstimate(1_000_000))/(1<<20))
	}
	cs := compiler.Stats()
	fmt.Printf("\ncompile cache: %d hits, %d misses, %d entries\n", cs.Hits, cs.Misses, cs.Entries)
}

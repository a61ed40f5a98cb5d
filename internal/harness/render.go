package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// samplerOrder fixes the column order in reports.
var samplerOrder = []string{"this-work", "unigen3-like", "cmsgen-like", "diffsampler"}

// RenderTable2 writes the Table II reproduction as an aligned text table.
func RenderTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "%-22s %6s %4s %8s %9s | %14s %9s | %12s %12s %12s\n",
		"Instance", "PI", "PO", "Vars", "Clauses",
		"This work", "Speedup", "UniGen3", "CMSGen", "DiffSampler")
	fmt.Fprintln(w, strings.Repeat("-", 136))
	for _, r := range rows {
		cell := func(name string) string {
			if r.TimedOut[name] && r.Unique[name] == 0 {
				return "TO"
			}
			return humanRate(r.Throughput[name])
		}
		fmt.Fprintf(w, "%-22s %6d %4d %8d %9d | %14s %8.1fx | %12s %12s %12s\n",
			r.Instance, r.PI, r.PO, r.Vars, r.Clauses,
			cell("this-work"), r.Speedup,
			cell("unigen3-like"), cell("cmsgen-like"), cell("diffsampler"))
	}
}

// RenderTable2CSV writes the same data as CSV.
func RenderTable2CSV(w io.Writer, rows []Table2Row) {
	fmt.Fprintf(w, "instance,pi,po,vars,clauses")
	for _, s := range samplerOrder {
		fmt.Fprintf(w, ",%s_tps,%s_unique,%s_timeout", s, s, s)
	}
	fmt.Fprintf(w, ",speedup\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d", r.Instance, r.PI, r.PO, r.Vars, r.Clauses)
		for _, s := range samplerOrder {
			fmt.Fprintf(w, ",%.2f,%d,%v", r.Throughput[s], r.Unique[s], r.TimedOut[s])
		}
		fmt.Fprintf(w, ",%.2f\n", r.Speedup)
	}
}

// RenderFig2 writes the latency/unique-count scatter grouped by sampler,
// ready for log-log plotting.
func RenderFig2(w io.Writer, pts []Fig2Point) {
	bySampler := map[string][]Fig2Point{}
	for _, p := range pts {
		bySampler[p.Sampler] = append(bySampler[p.Sampler], p)
	}
	names := make([]string, 0, len(bySampler))
	for n := range bySampler {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# sampler: %s (latency_ms vs unique_solutions)\n", n)
		group := bySampler[n]
		sort.Slice(group, func(i, j int) bool { return group[i].Unique < group[j].Unique })
		for _, p := range group {
			fmt.Fprintf(w, "%-22s %10d %14.3f\n", p.Instance, p.Unique, p.LatencyMs)
		}
	}
}

// RenderFig2CSV writes the scatter as CSV.
func RenderFig2CSV(w io.Writer, pts []Fig2Point) {
	fmt.Fprintln(w, "sampler,instance,unique,latency_ms")
	for _, p := range pts {
		fmt.Fprintf(w, "%s,%s,%d,%.3f\n", p.Sampler, p.Instance, p.Unique, p.LatencyMs)
	}
}

// RenderFig3 writes learning curves and the memory model.
func RenderFig3(w io.Writer, res []Fig3Result) {
	fmt.Fprintln(w, "# Fig 3 (left): unique solutions after each GD iteration")
	for _, r := range res {
		fmt.Fprintf(w, "%-22s", r.Instance)
		for _, u := range r.Curve {
			fmt.Fprintf(w, " %7d", u)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n# Fig 3 (right): estimated tensor memory (MB) by batch size")
	if len(res) == 0 {
		return
	}
	var batches []int
	for b := range res[0].MemoryMB {
		batches = append(batches, b)
	}
	sort.Ints(batches)
	fmt.Fprintf(w, "%-22s", "instance")
	for _, b := range batches {
		fmt.Fprintf(w, " %12d", b)
	}
	fmt.Fprintln(w)
	for _, r := range res {
		fmt.Fprintf(w, "%-22s", r.Instance)
		for _, b := range batches {
			fmt.Fprintf(w, " %12.1f", r.MemoryMB[b])
		}
		fmt.Fprintln(w)
	}
}

// RenderFig4 writes the three-part ablation.
func RenderFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintf(w, "%-22s %14s %14s %9s | %10s %10s %8s | %14s\n",
		"Instance", "Seq (sol/s)", "Par (sol/s)", "Speedup",
		"CNF ops", "Ckt ops", "Reduce", "Transform")
	fmt.Fprintln(w, strings.Repeat("-", 118))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14s %14s %8.1fx | %10d %10d %7.1fx | %14s\n",
			r.Instance,
			humanRate(r.SeqThroughput), humanRate(r.ParThroughput), r.Speedup,
			r.OpsCNF, r.OpsCircuit, r.OpsReduction,
			r.TransformTime.Round(time.Millisecond))
	}
}

// RenderSched writes the scheduler ablation (continuous-batch vs
// round-synchronous sampling) as an aligned text table.
func RenderSched(w io.Writer, rows []SchedRow) {
	fmt.Fprintf(w, "%-22s %14s %14s %8s | %9s %9s | %9s %9s\n",
		"Instance", "Cont (sol/s)", "Round (sol/s)", "Ratio",
		"C-iters", "R-iters", "Retired", "Stalled")
	fmt.Fprintln(w, strings.Repeat("-", 108))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %14s %14s %7.2fx | %9d %9d | %9d %9d\n",
			r.Instance, humanRate(r.ContSolS), humanRate(r.RoundSolS), r.Ratio,
			r.ContIters, r.RoundIters, r.Retired, r.Stalled)
	}
}

// RenderScale writes the multi-core scaling curve as an aligned text
// table, one column group per worker count.
func RenderScale(w io.Writer, rows []ScaleRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-22s %6s", "Instance", "Batch")
	for _, a := range rows[0].Arms {
		fmt.Fprintf(w, " | %2dw %11s %7s", a.Workers, "(sol/s)", "speedup")
	}
	fmt.Fprintf(w, " | %s\n", "Streams")
	fmt.Fprintln(w, strings.Repeat("-", 30+27*len(rows[0].Arms)+10))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %6d", r.Instance, r.Batch)
		for _, a := range r.Arms {
			fmt.Fprintf(w, " | %15s %6.2fx", humanRate(a.SolS), a.Speedup)
		}
		ident := fmt.Sprintf("identical (first %d)", r.Prefix)
		if !r.Identical {
			ident = "DIVERGED"
		}
		fmt.Fprintf(w, " | %s\n", ident)
	}
}

// RenderCache prints the durable-compile-tier comparison: cold compile vs
// store load vs warm memory hit, with the artifact size and the headline
// cold/load speedup.
func RenderCache(w io.Writer, rows []CacheRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-22s %8s %9s | %12s %12s %12s %10s %8s\n",
		"Instance", "vars", "clauses", "cold", "store-load", "warm-hit", "blob", "speedup")
	fmt.Fprintln(w, strings.Repeat("-", 102))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %9d | %12s %12s %12s %9.1fK %7.1fx\n",
			r.Instance, r.Vars, r.Clauses,
			r.ColdCompile.Round(10*time.Microsecond),
			r.StoreLoad.Round(10*time.Microsecond),
			r.WarmHit.Round(time.Microsecond),
			float64(r.BlobBytes)/(1<<10), r.Speedup)
	}
}

// RenderAssume prints the assumption-specialization comparison: cold
// compile vs re-specialization of the compiled artifact, with the
// conditioned quality columns on instances the exact oracle could count.
func RenderAssume(w io.Writer, rows []AssumeRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-22s %8s %9s %5s | %12s %12s %8s | %8s %9s %10s\n",
		"Instance", "vars", "clauses", "pins", "cold", "specialize", "speedup", "exact", "coverage", "p")
	fmt.Fprintln(w, strings.Repeat("-", 118))
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %8d %9d %5d | %12s %12s %7.1fx | ",
			r.Instance, r.Vars, r.Clauses, r.Pins,
			r.ColdCompile.Round(10*time.Microsecond),
			r.Specialize.Round(time.Microsecond), r.Speedup)
		if r.QualityMeasured {
			fmt.Fprintf(w, "%8.0f %9.3f %10.3g\n", r.Exact, r.Coverage, r.P)
		} else {
			fmt.Fprintf(w, "%8s %9s %10s\n", "-", "-", "-")
		}
	}
}

func humanRate(v float64) string {
	switch {
	case v <= 0:
		return "-"
	case v >= 1e6:
		return fmt.Sprintf("%.1fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.1f/s", v)
	}
}

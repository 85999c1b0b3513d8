// cdcs is the command-line constraint-driven communication synthesizer:
// it reads a constraint graph (JSON) and a communication library (JSON),
// runs the full synthesis flow, and reports the optimum architecture.
//
// Usage:
//
//	cdcs -graph wan.json -lib wan-lib.json [-dot out.dot] [-solver exact|greedy]
//	cdcs -example wan|mpeg4 [-dot out.dot] [-svg out.svg]   # built-in instance
//	cdcs -example wan -timeout 100ms                        # deadline-bounded run
//	cdcs -example wan -trace t.json -metrics                # observability on
//	cdcs -example wan -report rep.json                      # machine-readable outcome
//	cdcs -example wan -progress                             # NDJSON progress events on stdout
//	cdcs -example wan -server http://localhost:8080         # submit to a cdcsd daemon
//	cdcs -version                                           # print version and exit
//
// With -timeout the run has anytime semantics: on deadline the flow
// degrades to the best feasible architecture found so far (verified,
// possibly sub-optimal) and the report carries a degradation section
// with an optimality-gap bound; the exit code stays 0.
//
// -trace writes a Chrome trace_event JSON of the synthesis phases
// (open in chrome://tracing or ui.perfetto.dev), -metrics prints the
// algorithm-counter snapshot, and -report writes a small JSON summary
// (cost, optimality, degradation) that scripts and CI assert against
// instead of grepping the human-readable output. See
// docs/OBSERVABILITY.md.
//
// With -server the instance is submitted to a cdcsd daemon instead of
// synthesized in-process: the client retries shed (429) and draining
// (503) responses with exponential backoff — honoring the daemon's
// Retry-After hint — up to -retry attempts, waits for the job with
// held GETs (?wait=), and prints the daemon's result (also written by
// -report verbatim). -trace with -server roots a distributed trace on the
// submission and, once the job finishes, collects its spans from every
// replica and writes one stitched Perfetto file. Local-only outputs
// (-dot, -svg, -json, -metrics, -progress, -simulate) cannot be
// combined with -server.
//
// The graph JSON schema matches model.ConstraintGraph's MarshalJSON:
//
//	{"norm":"euclidean",
//	 "ports":[{"name":"A.out","module":"A","x":0,"y":0}, ...],
//	 "channels":[{"name":"a1","from":"A.out","to":"B.in","bandwidth":10}, ...]}
//
// The library JSON schema:
//
//	{"links":[{"name":"radio","bandwidth":11,"maxSpan":null,"costPerLength":2}, ...],
//	 "nodes":[{"name":"mux","kind":"mux","cost":0}, ...]}
//
// A null or missing maxSpan means the link is length-parametric
// (unbounded span).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"repro/internal/baseline"
	"repro/internal/buildinfo"
	"repro/internal/flowsim"
	"repro/internal/impl"
	"repro/internal/library"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/p2p"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/viz"
	"repro/internal/workloads"
)

// status is the CLI's structured logger. Human-readable status lines
// go to stderr through it so stdout stays clean for machine output
// (the report tables, -metrics JSON, -progress NDJSON) and piping
// stdout into jq or a file never picks up stray prose.
var status *slog.Logger

func main() {
	graphPath := flag.String("graph", "", "constraint graph JSON file")
	libPath := flag.String("lib", "", "communication library JSON file")
	example := flag.String("example", "", "built-in instance: wan or mpeg4")
	dotPath := flag.String("dot", "", "write the implementation graph in DOT format to this file")
	svgPath := flag.String("svg", "", "write the implementation graph as an SVG drawing to this file")
	jsonPath := flag.String("json", "", "write the implementation graph as JSON to this file")
	solver := flag.String("solver", "exact", "synthesis mode: exact, greedy (heuristic covering) or baseline (greedy agglomerative merging)")
	simulate := flag.Bool("simulate", false, "validate the result with the flow simulator")
	workers := flag.Int("workers", 0, "candidate-pricing worker pool size (0 = all CPUs, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "overall synthesis deadline (0 = none); on expiry the run degrades to the best feasible architecture instead of failing")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON of the synthesis phases to this file; with -server, the stitched distributed trace collected from every replica")
	metrics := flag.Bool("metrics", false, "print the algorithm-counter snapshot after the run")
	reportPath := flag.String("report", "", "write a machine-readable JSON run summary (cost, optimality, degradation) to this file")
	progress := flag.Bool("progress", false, "stream synthesis progress events (phase boundaries, enumeration levels, incumbents) as NDJSON on stdout")
	server := flag.String("server", "", "submit to a cdcsd daemon instead of synthesizing locally; comma-separate fleet replica base URLs (e.g. http://a:8080,http://b:8080) to spread retries across them")
	retry := flag.Int("retry", 5, "with -server: attempts per request when the daemon sheds load (429/503; rotates through replicas, exponential backoff, Retry-After honored)")
	showVersion := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(buildinfo.String("cdcs"))
		return
	}
	status = serve.NewLogger(os.Stderr, slog.LevelInfo, false)

	if *server != "" {
		runRemote(remoteFlags{
			server:    *server,
			retries:   *retry,
			graphPath: *graphPath,
			libPath:   *libPath,
			example:   *example,
			solver:    *solver,
			workers:   *workers,
			timeout:   *timeout,
			report:    *reportPath,
			dot:       *dotPath,
			svg:       *svgPath,
			jsonOut:   *jsonPath,
			trace:     *tracePath,
			simulate:  *simulate,
			metrics:   *metrics,
			progress:  *progress,
		})
		return
	}

	cg, lib, err := loadInputs(*graphPath, *libPath, *example)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs:", err)
		os.Exit(2)
	}

	// Observability: a sink only when something will read it, and a
	// pprof label naming the workload either way (visible in profiles
	// taken with -http style wrappers or external pprof attach).
	var sink *obs.Sink
	if *tracePath != "" || *metrics || *progress {
		sink = obs.New(obs.Config{Tracing: *tracePath != "", Metrics: *metrics, Events: *progress, PprofLabels: true})
	}
	ctx := obs.NewContext(context.Background(), sink)
	ctx = obs.WithLabels(ctx, "workload", workloadName(*graphPath, *example))

	// -progress: a dedicated goroutine drains the event stream to
	// stdout as NDJSON while the run publishes into it; waitProgress
	// flushes everything published so far before the report prints, so
	// event lines never interleave with the report tables.
	waitProgress := func() {}
	if *progress {
		replay, live, cancelSub := sink.Events().Subscribe(0)
		done := make(chan struct{})
		enc := json.NewEncoder(os.Stdout)
		go func() {
			defer close(done)
			for _, ev := range replay {
				_ = enc.Encode(ev)
			}
			for ev := range live {
				_ = enc.Encode(ev)
			}
		}()
		waitProgress = func() { cancelSub(); <-done }
	}

	opts := synth.Options{
		Merging: merging.Options{Policy: merging.MaxIndexRef},
		Workers: *workers,
		Timeout: *timeout,
	}
	var ig *impl.Graph
	var rep *synth.Report
	switch *solver {
	case "exact":
		ig, rep, err = synth.SynthesizeContext(ctx, cg, lib, opts)
	case "greedy":
		opts.Solver = synth.GreedySolver
		ig, rep, err = synth.SynthesizeContext(ctx, cg, lib, opts)
	case "baseline":
		var brep *baseline.Report
		ig, brep, err = baseline.Synthesize(cg, lib, baseline.Options{})
		if err == nil {
			// Adapt the baseline report to the common shape.
			rep = &synth.Report{Cost: brep.Cost, P2PCost: brep.P2PCost, Elapsed: brep.Elapsed}
		}
	default:
		fmt.Fprintf(os.Stderr, "cdcs: unknown solver %q\n", *solver)
		os.Exit(2)
	}
	waitProgress()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdcs:", err)
		os.Exit(1)
	}
	if err := ig.Verify(impl.VerifyOptions{}); err != nil {
		fmt.Fprintln(os.Stderr, "cdcs: internal: result fails verification:", err)
		os.Exit(1)
	}
	printReport(cg, rep)
	printStats(ig)

	if *simulate {
		if err := runSimulation(ig); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs: simulate:", err)
			os.Exit(1)
		}
	}
	if err := writeOutputs(ig, *dotPath, *svgPath, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "cdcs:", err)
		os.Exit(1)
	}
	if err := writeObsOutputs(sink, *tracePath, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "cdcs:", err)
		os.Exit(1)
	}
	if *reportPath != "" {
		if err := writeRunReport(*reportPath, *solver, cg, rep); err != nil {
			fmt.Fprintln(os.Stderr, "cdcs:", err)
			os.Exit(1)
		}
	}
}

// workloadName labels the run for runtime/pprof profiles.
func workloadName(graphPath, example string) string {
	if example != "" {
		return example
	}
	return filepath.Base(graphPath)
}

// runReport is the -report JSON: the fields scripts assert against
// (CI's deadline-smoke job checks optimal/degradation here instead of
// grepping the human-readable output).
type runReport struct {
	Solver      string   `json:"solver"`
	Channels    int      `json:"channels"`
	Cost        float64  `json:"cost"`
	P2PCost     float64  `json:"p2pCost"`
	SavingsPct  float64  `json:"savingsPercent"`
	Optimal     bool     `json:"optimal"`
	Degraded    bool     `json:"degraded"`
	Degradation []string `json:"degradation"`
	GapBound    float64  `json:"gapBound"`
	ElapsedMs   float64  `json:"elapsedMs"`
}

func writeRunReport(path, solver string, cg *model.ConstraintGraph, rep *synth.Report) error {
	rr := runReport{
		Solver:      solver,
		Channels:    cg.NumChannels(),
		Cost:        rep.Cost,
		P2PCost:     rep.P2PCost,
		SavingsPct:  rep.SavingsPercent(),
		Optimal:     rep.ResultOptimal(),
		Degraded:    rep.Degradation.Degraded(),
		Degradation: rep.Degradation.Summary(),
		GapBound:    rep.Degradation.GapBound,
		ElapsedMs:   float64(rep.Elapsed.Microseconds()) / 1000,
	}
	if rr.Degradation == nil {
		rr.Degradation = []string{}
	}
	data, err := json.MarshalIndent(rr, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	status.Info("report written", "path", path)
	return nil
}

// writeObsOutputs exports what the sink collected.
func writeObsOutputs(sink *obs.Sink, tracePath string, metrics bool) error {
	if tracePath != "" {
		data, err := sink.Tracer().ChromeTrace()
		if err != nil {
			return fmt.Errorf("encode trace: %w", err)
		}
		if err := os.WriteFile(tracePath, data, 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		status.Info("trace written", "path", tracePath, "viewer", "chrome://tracing or ui.perfetto.dev")
	}
	if metrics {
		data, err := sink.Metrics().Snapshot().JSON()
		if err != nil {
			return fmt.Errorf("encode metrics: %w", err)
		}
		fmt.Println(string(data))
	}
	return nil
}

func runSimulation(ig *impl.Graph) error {
	res, err := flowsim.Simulate(ig, flowsim.Config{Ticks: 600})
	if err != nil {
		return err
	}
	fmt.Println("flow simulation:")
	var rows [][]string
	for _, c := range res.Channels {
		rows = append(rows, []string{
			c.Name,
			fmt.Sprintf("%.2f", c.Offered),
			fmt.Sprintf("%.2f", c.Delivered),
			map[bool]string{true: "yes", false: "NO"}[c.Satisfied()],
		})
	}
	fmt.Println(report.Table([]string{"channel", "offered", "delivered", "satisfied"}, rows))
	if !res.AllSatisfied() {
		return fmt.Errorf("simulation found starved channels")
	}
	return nil
}

// writeOutputs writes every requested output file; any JSON-encode or
// file-write error aborts with a non-zero exit through the caller.
func writeOutputs(ig *impl.Graph, dotPath, svgPath, jsonPath string) error {
	if dotPath != "" {
		if err := os.WriteFile(dotPath, []byte(ig.Dot()), 0o644); err != nil {
			return fmt.Errorf("write DOT: %w", err)
		}
		status.Info("DOT written", "path", dotPath)
	}
	if svgPath != "" {
		svg := viz.Implementation(ig, viz.Options{ShowLabels: true})
		if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
			return fmt.Errorf("write SVG: %w", err)
		}
		status.Info("SVG written", "path", svgPath)
	}
	if jsonPath != "" {
		data, err := json.MarshalIndent(ig, "", "  ")
		if err != nil {
			return fmt.Errorf("encode JSON: %w", err)
		}
		if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
			return fmt.Errorf("write JSON: %w", err)
		}
		status.Info("JSON written", "path", jsonPath)
	}
	return nil
}

func loadInputs(graphPath, libPath, example string) (*model.ConstraintGraph, *library.Library, error) {
	switch example {
	case "wan":
		return workloads.WAN(), workloads.WANLibrary(), nil
	case "mpeg4":
		return workloads.MPEG4(), workloads.MPEG4Technology().Library(), nil
	case "":
	default:
		return nil, nil, fmt.Errorf("unknown example %q (wan, mpeg4)", example)
	}
	if graphPath == "" || libPath == "" {
		return nil, nil, fmt.Errorf("need -graph and -lib, or -example")
	}
	graphData, err := os.ReadFile(graphPath)
	if err != nil {
		return nil, nil, err
	}
	cg, err := model.DecodeConstraintGraph(graphData)
	if err != nil {
		return nil, nil, err
	}
	libData, err := os.ReadFile(libPath)
	if err != nil {
		return nil, nil, err
	}
	lib, err := library.Decode(libData)
	if err != nil {
		return nil, nil, err
	}
	return cg, lib, nil
}

func printReport(cg *model.ConstraintGraph, rep *synth.Report) {
	fmt.Printf("channels            : %d\n", cg.NumChannels())
	fmt.Printf("point-to-point cost : %.3f\n", rep.P2PCost)
	fmt.Printf("optimal cost        : %.3f\n", rep.Cost)
	fmt.Printf("savings             : %.1f%%\n", rep.SavingsPercent())
	fmt.Printf("mergings priced     : %d (infeasible %d, dominated %d)\n",
		rep.PricedMergings, rep.InfeasibleMergings, rep.DominatedMergings)
	fmt.Printf("solver optimal      : %v\n", rep.SolverOptimal)
	fmt.Printf("result optimal      : %v\n", rep.ResultOptimal())
	if rep.Workers > 0 {
		fmt.Printf("pricing workers     : %d\n", rep.Workers)
		fmt.Printf("plan cache          : %d hits / %d misses (%.1f%% hit rate), %d entries over %d shards\n",
			rep.PlanCache.Hits, rep.PlanCache.Misses, 100*rep.PlanCache.HitRate(),
			rep.PlanCache.Entries, rep.PlanCache.Shards)
		fmt.Printf("phase timings       : enumerate %v, price %v, solve %v, materialize %v\n",
			rep.Timings.Enumerate, rep.Timings.Price, rep.Timings.Solve, rep.Timings.Materialize)
	}
	fmt.Printf("elapsed             : %v\n", rep.Elapsed.Round(time.Microsecond))
	if rep.Degradation.Degraded() {
		fmt.Println("degradation         :")
		for _, line := range rep.Degradation.Summary() {
			fmt.Printf("  - %s\n", line)
		}
	}
	fmt.Println()

	var rows [][]string
	for _, c := range rep.SelectedCandidates() {
		names := make([]string, len(c.Channels))
		for i, ch := range c.Channels {
			names[i] = cg.Channel(ch).Name
		}
		detail := ""
		switch c.Kind {
		case "p2p":
			detail = describePlan(*c.Plan)
		case "merge":
			detail = fmt.Sprintf("trunk %s via mux %v → demux %v",
				c.Merge.TrunkPlan.Link.Name, c.Merge.MuxPos, c.Merge.DemuxPos)
		}
		rows = append(rows, []string{
			c.Kind,
			fmt.Sprintf("%v", names),
			fmt.Sprintf("%.3f", c.Cost),
			detail,
		})
	}
	fmt.Println(report.Table([]string{"kind", "channels", "cost", "detail"}, rows))
}

func printStats(ig *impl.Graph) {
	stats := ig.Stats()
	var rows [][]string
	for _, name := range stats.LinkTypeNames() {
		rows = append(rows, []string{
			"link " + name,
			fmt.Sprint(stats.LinksByType[name]),
			fmt.Sprintf("%.3f", stats.LengthByType[name]),
		})
	}
	if stats.Repeaters() > 0 {
		rows = append(rows, []string{"repeaters", fmt.Sprint(stats.Repeaters()), ""})
	}
	if stats.Switches() > 0 {
		rows = append(rows, []string{"switches (mux+demux)", fmt.Sprint(stats.Switches()), ""})
	}
	fmt.Println(report.Table([]string{"element", "count", "total length"}, rows))
}

func describePlan(p p2p.Plan) string {
	return p.String()
}

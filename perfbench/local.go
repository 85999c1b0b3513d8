package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/cdcs"
	"repro/internal/merging"
	"repro/internal/model"
	"repro/internal/num"
	"repro/internal/p2p"
	"repro/internal/place"
	"repro/internal/ucp"
	"repro/internal/workloads"
)

// paperOrder is the instance set of the paper workload; every cycle
// runs each instance once, in a seeded order.
var paperOrder = []string{"wan", "lan", "mcm", "noc"}

// paperLimit is the per-call latency limit for goodput on paper: about
// twice the slowest instance (noc takes about 1 s on two cores).
const paperLimit = 2 * time.Second

// budgetDeadline is the fixed per-instance deadline of the budget
// workload, and budgetLimit the latency limit for its goodput.
const (
	budgetDeadline = time.Second
	budgetLimit    = budgetDeadline + 500*time.Millisecond
)

// warmUp runs one WAN synthesis so lazy runtime set-up (page faults,
// heap growth) is paid during set-up rather than by the first timed
// call.
func warmUp() error {
	_, _, err := cdcs.SynthesizeContext(context.Background(),
		workloads.WAN(), workloads.WANLibrary(), cdcs.Options{})
	return err
}

// opSample is one timed operation of a closed loop.
type opSample struct {
	key     string
	latency time.Duration
	ok      bool
	traced  bool
}

// measureClosed runs one untraced closed loop under the heap sampler
// and fills in the end-to-end metrics.
func measureClosed(out *outcome, setupS float64, limit time.Duration, loop func() ([]opSample, time.Duration)) {
	heap := startHeapSampler()
	samples, elapsed := loop()
	peak := heap.Stop()
	tally(out, samples)
	var lat []float64
	good := 0
	for _, s := range samples {
		lat = append(lat, ms(s.latency))
		if s.ok && s.latency <= limit {
			good++
		}
	}
	out.metrics["setup_s"] = setupS
	out.metrics["lat_p50_ms"] = quantile(lat, 0.5)
	out.metrics["lat_p90_ms"] = quantile(lat, 0.9)
	out.metrics["goodput_rps"] = float64(good) / elapsed.Seconds()
	out.metrics["peak_heap_mb"] = peak
}

// verified runs cdcs.Verify on a result that passed its other checks,
// timing the call, and reports any failure on standard error.
func verified(ig *cdcs.ImplementationGraph, check error) (bool, time.Duration) {
	var d time.Duration
	if check == nil {
		t0 := time.Now()
		check = cdcs.Verify(ig)
		d = time.Since(t0)
	}
	if check != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %v\n", check)
	}
	return check == nil, d
}

// tally counts attempted and failed operations into an outcome.
func tally(out *outcome, samples []opSample) {
	for _, s := range samples {
		out.attempted++
		if !s.ok {
			out.failed++
			out.wrong++
		}
	}
}

// --- paper ---

func runPaper(r *run) (*outcome, error) {
	setupS, ins, err := medianSetup(setupRepeats, func() (map[string]*instance, error) {
		ins, err := paperInstances(r.corrupt)
		if err != nil {
			return nil, err
		}
		return ins, warmUp()
	}, func(map[string]*instance) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	out := &outcome{metrics: map[string]float64{}}
	if !r.trace {
		measureClosed(out, setupS, paperLimit, func() ([]opSample, time.Duration) {
			return paperLoop(ins, rng, r.seconds, nil)
		})
		return out, nil
	}

	// Traced run: untraced and traced cycles alternate, so a slow spell
	// of the machine falls on both.
	tr := &paperTrace{sums: map[string]float64{}}
	samples, _ := paperLoop(ins, rng, r.seconds, tr)
	tally(out, samples)
	var plain, traced []opSample
	for _, s := range samples {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}

	byKey := func(samples []opSample) map[string][]float64 {
		m := map[string][]float64{}
		for _, s := range samples {
			m[s.key] = append(m[s.key], ms(s.latency))
		}
		return m
	}
	plainBy, tracedBy := byKey(plain), byKey(traced)
	var over []float64
	var savings []float64
	for _, name := range paperOrder {
		out.metrics["synth_ms."+name] = median(plainBy[name])
		over = append(over, overheadPct(tracedBy[name], plainBy[name]))
		w := ins[name].want
		savings = append(savings, 100*(1-w.Cost/w.P2PCost))
	}
	out.metrics["trace.overhead_pct"] = mean(over)
	out.metrics["savings_pct"] = mean(savings)
	cycles := float64(len(traced)) / float64(len(paperOrder))
	for _, k := range []string{
		"p2p.plan_ms", "merging.enumerate_ms", "merging.candidates", "merging.sets_tested",
		"place.price_ms", "place.pricings", "ucp.solve_ms", "ucp.columns", "ucp.nodes", "impl.verify_ms",
	} {
		out.metrics[k] = tr.sums[k] / cycles
	}
	out.metrics["merging.heap_mb"] = tr.maxHeap
	out.metrics["place.pricing_us"] = 1000 * ratio(tr.sums["pricing_ms_serial"], tr.sums["place.pricings"])
	out.metrics["place.useful_ratio"] = ratio(tr.sums["kept"], tr.sums["place.pricings"])
	out.metrics["synth.price_scaling"] = ratio(tr.sums["price_w1_ms"], tr.sums["price_wn_ms"])
	layerSum := tr.sums["p2p.plan_ms"] + tr.sums["merging.enumerate_ms"] + tr.sums["place.price_ms"] +
		tr.sums["ucp.solve_ms"] + tr.sums["impl.verify_ms"]
	out.metrics["synth.layer_sum_ratio"] = ratio(layerSum, tr.sums["facade_ms"])
	return out, nil
}

// paperTrace accumulates the traced cycles of a paper run.
type paperTrace struct {
	sums    map[string]float64
	maxHeap float64
}

// paperLoop runs whole cycles over the four paper instances, each in a
// fresh seeded order, until dur has elapsed. With tr set, every second
// cycle is traced: each measured call in it is followed by a
// layer-by-layer replay of the flow and a facade run at one pricing
// worker.
func paperLoop(ins map[string]*instance, rng *rand.Rand, dur time.Duration, tr *paperTrace) ([]opSample, time.Duration) {
	var samples []opSample
	start := time.Now()
	for cycle := 0; time.Since(start) < dur; cycle++ {
		traced := tr != nil && cycle%2 == 1
		for _, i := range rng.Perm(len(paperOrder)) {
			in := ins[paperOrder[i]]
			t0 := time.Now()
			ig, rep, err := cdcs.SynthesizeContext(context.Background(), in.cg, in.lib,
				cdcs.Options{Workers: runtime.NumCPU()})
			lat := time.Since(t0)
			check := err
			if check == nil && !rep.ResultOptimal() {
				check = fmt.Errorf("%s: result not proven optimal", in.name)
			}
			if check == nil {
				check = checkOptimum(in.want, rep.Cost, rep.P2PCost, reportMerged(in.cg, rep))
			}
			ok, verify := verified(ig, check)
			if traced && err == nil {
				tr.sums["facade_ms"] += ms(lat)
				tr.sums["price_wn_ms"] += ms(rep.Timings.Price)
				tr.sums["impl.verify_ms"] += ms(verify)
				ok = tr.replay(in, rep.Cost) && tr.price1(in) && ok
				// Collect the traced work's garbage so it does not
				// slow the next measured call.
				runtime.GC()
			}
			samples = append(samples, opSample{key: in.name, latency: lat, ok: ok, traced: traced})
		}
	}
	return samples, time.Since(start)
}

// price1 runs the facade at one pricing worker, the numerator of
// synth.price_scaling, and reports whether it reached the optimum.
func (tr *paperTrace) price1(in *instance) bool {
	_, rep, err := cdcs.SynthesizeContext(context.Background(), in.cg, in.lib, cdcs.Options{Workers: 1})
	if err == nil && !costEq(rep.Cost, in.want.Cost) {
		err = fmt.Errorf("%s: cost %.9g at one worker, want %.9g", in.name, rep.Cost, in.want.Cost)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %v\n", err)
		return false
	}
	tr.sums["price_w1_ms"] += ms(rep.Timings.Price)
	return true
}

// replay re-runs the flow through each layer's public function and
// reports whether it reached the facade's cost.
func (tr *paperTrace) replay(in *instance, facadeCost float64) bool {
	l, err := replayFlow(context.Background(), in.cg, in.lib, runtime.NumCPU())
	if err == nil && !costEq(l.cost, facadeCost) {
		err = fmt.Errorf("%s: replayed cost %.9g, facade %.9g", in.name, l.cost, facadeCost)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: wrong output: %v\n", err)
		return false
	}
	tr.sums["p2p.plan_ms"] += ms(l.plan)
	tr.sums["merging.enumerate_ms"] += ms(l.enumerate)
	tr.sums["merging.candidates"] += float64(l.candidates)
	tr.sums["merging.sets_tested"] += float64(l.setsTested)
	tr.sums["place.price_ms"] += ms(l.price)
	tr.sums["place.pricings"] += float64(l.pricings)
	tr.sums["pricing_ms_serial"] += ms(l.pricingSerial)
	tr.sums["kept"] += float64(l.kept)
	tr.sums["ucp.solve_ms"] += ms(l.solve)
	tr.sums["ucp.columns"] += float64(l.columns)
	tr.sums["ucp.nodes"] += float64(l.nodes)
	if l.heapMB > tr.maxHeap {
		tr.maxHeap = l.heapMB
	}
	return true
}

// layerTimes is one replayed synthesis, timed at each layer boundary.
type layerTimes struct {
	plan, enumerate, price, solve time.Duration
	// pricingSerial sums the individual place.Optimize calls.
	pricingSerial time.Duration
	candidates    int
	setsTested    int
	pricings      int
	kept          int
	columns       int
	nodes         int
	heapMB        float64
	cost          float64
}

// p2pCosts plans every channel's optimum point-to-point implementation
// with p2p.BestPlan and returns the costs.
func p2pCosts(cg *cdcs.ConstraintGraph, lib *cdcs.Library) ([]float64, error) {
	costs := make([]float64, cg.NumChannels())
	for i := range costs {
		ch := model.ChannelID(i)
		plan, err := p2p.BestPlan(cg.Distance(ch), cg.Bandwidth(ch), lib, p2p.Options{})
		if err != nil {
			return nil, err
		}
		costs[i] = plan.Cost
	}
	return costs, nil
}

// replayFlow runs the synthesis flow through the layers' public
// functions, as the facade composes them: optimum point-to-point plans
// (p2p.BestPlan), candidate enumeration (merging.EnumerateContext),
// parallel placement pricing (place.Optimize), the dominance filter,
// and the decomposed covering solve (ucp). Each call is timed from
// here; nothing inside the program is instrumented.
func replayFlow(ctx context.Context, cg *cdcs.ConstraintGraph, lib *cdcs.Library, workers int) (layerTimes, error) {
	var l layerTimes
	n := cg.NumChannels()
	t0 := time.Now()
	p2pCost, err := p2pCosts(cg, lib)
	if err != nil {
		return l, err
	}
	l.plan = time.Since(t0)

	t0 = time.Now()
	enum, err := merging.EnumerateContext(ctx, cg, lib, merging.Options{Policy: merging.MaxIndexRef})
	l.enumerate = time.Since(t0)
	if err != nil {
		return l, err
	}
	l.heapMB = liveHeapMB()
	l.candidates = enum.TotalCandidates()
	l.setsTested = enum.SetsTested
	var sets [][]model.ChannelID
	for k := 2; k <= n; k++ {
		sets = append(sets, enum.ByK[k]...)
	}

	t0 = time.Now()
	costs, serial := priceAll(cg, lib, sets, workers)
	l.price = time.Since(t0)
	l.pricingSerial = serial
	l.pricings = len(sets)

	m := ucp.NewMatrix(n)
	for i, c := range p2pCost {
		if _, err := m.AddColumn(ucp.Column{Rows: []int{i}, Weight: c}); err != nil {
			return l, err
		}
	}
	for i, set := range sets {
		if costs[i] < 0 {
			continue
		}
		var alt float64
		rows := make([]int, len(set))
		for j, ch := range set {
			alt += p2pCost[ch]
			rows[j] = int(ch)
		}
		if num.GreaterEq(costs[i], alt) {
			continue
		}
		l.kept++
		if _, err := m.AddColumn(ucp.Column{Rows: rows, Weight: costs[i]}); err != nil {
			return l, err
		}
	}
	l.columns = m.NumColumns()
	t0 = time.Now()
	sol, err := m.SolveDecomposedContext(ctx)
	l.solve = time.Since(t0)
	if err != nil {
		return l, err
	}
	l.nodes = sol.Stats.Nodes
	l.cost = sol.Cost
	return l, nil
}

// priceAll prices every set with place.Optimize over a pool of
// workers; an infeasible merging gets cost -1. It also returns the
// summed duration of the individual calls.
func priceAll(cg *cdcs.ConstraintGraph, lib *cdcs.Library, sets [][]model.ChannelID, workers int) ([]float64, time.Duration) {
	costs := make([]float64, len(sets))
	var (
		mu     sync.Mutex
		serial time.Duration
		wg     sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var busy time.Duration
			for i := range next {
				t0 := time.Now()
				cand, err := place.Optimize(cg, lib, sets[i], place.Options{})
				busy += time.Since(t0)
				if err != nil {
					costs[i] = -1
				} else {
					costs[i] = cand.Cost
				}
			}
			mu.Lock()
			serial += busy
			mu.Unlock()
		}()
	}
	for i := range sets {
		next <- i
	}
	close(next)
	wg.Wait()
	return costs, serial
}

// --- budget ---

// budgetInstance is one seeded random WAN with its independently
// computed point-to-point cost.
type budgetInstance struct {
	cg      *cdcs.ConstraintGraph
	p2pCost float64
}

// budgetPoolSize is how many instances the budget workload cycles
// through; a run of 20 s covers the pool twice.
const budgetPoolSize = 10

// budgetPool generates the budget workload's fixed set of 4-cluster
// random WANs (generator seeds 1..budgetPoolSize, 18 to 22 arcs) and
// prices each channel's point-to-point plan. The set does not depend
// on the run's seed: a run covers only about twenty instances, and the
// memory and overrun of one random instance differ from the next by
// far more than any change worth detecting, so a seed-drawn sample
// would make the figures wander from seed to seed. The run's seed
// orders each pass over the set instead.
func budgetPool(corrupt bool) ([]budgetInstance, error) {
	lib := workloads.WANLibrary()
	pool := make([]budgetInstance, budgetPoolSize)
	for i := range pool {
		cg := workloads.RandomWAN(workloads.RandomWANConfig{
			Seed: int64(i + 1), Clusters: 4, Channels: 18 + i%5,
		})
		costs, err := p2pCosts(cg, lib)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, c := range costs {
			total += c
		}
		if corrupt {
			total *= 1.01
		}
		pool[i] = budgetInstance{cg: cg, p2pCost: total}
	}
	return pool, nil
}

func runBudget(r *run) (*outcome, error) {
	setupS, pool, err := medianSetup(setupRepeats, func() ([]budgetInstance, error) {
		pool, err := budgetPool(r.corrupt)
		if err != nil {
			return nil, err
		}
		return pool, warmUp()
	}, func([]budgetInstance) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	out := &outcome{metrics: map[string]float64{}}
	lib := workloads.WANLibrary()
	if !r.trace {
		measureClosed(out, setupS, budgetLimit, func() ([]opSample, time.Duration) {
			return budgetLoop(pool, lib, rng, r.seconds, nil)
		})
		return out, nil
	}

	plain, _ := budgetLoop(pool, lib, rng, r.seconds/2, nil)
	tr := map[string][]float64{}
	traced, _ := budgetLoop(pool, lib, rng, r.seconds/2, tr)
	tally(out, plain)
	tally(out, traced)
	for k, v := range tr {
		out.metrics[k] = median(v)
	}
	var pl, tl []float64
	for _, s := range plain {
		pl = append(pl, ms(s.latency))
	}
	for _, s := range traced {
		tl = append(tl, ms(s.latency))
	}
	out.metrics["trace.overhead_pct"] = overheadPct(tl, pl)
	return out, nil
}

// budgetLoop runs whole passes over the pool, each in a fresh seeded
// order, synthesizing every instance under the fixed deadline, until
// dur has elapsed. With tr set, each operation is preceded by a timed
// replay of point-to-point planning and enumeration under the same
// deadline, and the report's layer counters are collected.
func budgetLoop(pool []budgetInstance, lib *cdcs.Library, rng *rand.Rand, dur time.Duration, tr map[string][]float64) ([]opSample, time.Duration) {
	var samples []opSample
	start := time.Now()
	for time.Since(start) < dur {
		for _, i := range rng.Perm(len(pool)) {
			samples = append(samples, budgetOp(pool[i], lib, tr))
		}
	}
	return samples, time.Since(start)
}

// budgetOp synthesizes one budget instance under the deadline and
// checks the result: the facade's point-to-point cost must match the
// independently planned one, the result may cost no more than it, and
// the architecture must verify.
func budgetOp(in budgetInstance, lib *cdcs.Library, tr map[string][]float64) opSample {
	if tr != nil {
		budgetReplay(in, lib, tr)
	}
	// Start from a collected heap: the peak heap is then the instance's
	// own, not the previous instance's garbage plus its own, which
	// depends on where that instance's collections happened to fall.
	runtime.GC()
	t0 := time.Now()
	ig, rep, err := cdcs.SynthesizeContext(context.Background(), in.cg, lib, cdcs.Options{Timeout: budgetDeadline})
	lat := time.Since(t0)
	check := err
	if check == nil && !costEq(rep.P2PCost, in.p2pCost) {
		check = fmt.Errorf("budget: point-to-point cost %.9g, want %.9g", rep.P2PCost, in.p2pCost)
	}
	if check == nil && num.Greater(rep.Cost, rep.P2PCost) {
		check = fmt.Errorf("budget: cost %.9g above point-to-point %.9g", rep.Cost, rep.P2PCost)
	}
	ok, verify := verified(ig, check)
	if tr == nil || err != nil {
		return opSample{key: "budget", latency: lat, ok: ok}
	}
	pricings := rep.PricedMergings + rep.InfeasibleMergings + rep.DominatedMergings
	add := func(k string, v float64) { tr[k] = append(tr[k], v) }
	add("savings_pct", rep.SavingsPercent())
	add("budget.enumerate_share", rep.Timings.Enumerate.Seconds()/budgetDeadline.Seconds())
	add("budget.pricings_in_budget", float64(pricings))
	add("budget.skipped", float64(rep.Degradation.PricingSkipped))
	add("budget.overrun_ms", ms(lat-budgetDeadline))
	add("place.pricings", float64(pricings))
	add("place.price_ms", ms(rep.Timings.Price))
	add("place.pricing_us", 1000*ratio(ms(rep.Timings.Price), float64(pricings)))
	add("place.useful_ratio", ratio(float64(rep.PricedMergings), float64(pricings)))
	add("ucp.solve_ms", ms(rep.Timings.Solve))
	add("ucp.columns", float64(len(rep.Candidates)))
	add("ucp.nodes", float64(rep.UCPStats.Nodes))
	add("impl.verify_ms", ms(verify))
	add("synth.layer_sum_ratio", ratio(ms(rep.Timings.Enumerate+rep.Timings.Price+rep.Timings.Solve+verify), ms(lat)))
	return opSample{key: "budget", latency: lat, ok: ok}
}

// budgetReplay times point-to-point planning and enumeration of one
// budget instance under the workload's deadline, and measures the
// live heap the enumerated candidate sets hold.
func budgetReplay(in budgetInstance, lib *cdcs.Library, tr map[string][]float64) {
	add := func(k string, v float64) { tr[k] = append(tr[k], v) }
	ctx, cancel := context.WithTimeout(context.Background(), budgetDeadline)
	defer cancel()
	t0 := time.Now()
	if _, err := p2pCosts(in.cg, lib); err != nil {
		return
	}
	add("p2p.plan_ms", ms(time.Since(t0)))
	t0 = time.Now()
	enum, err := merging.EnumerateContext(ctx, in.cg, lib, merging.Options{Policy: merging.MaxIndexRef})
	if err != nil {
		return
	}
	add("merging.enumerate_ms", ms(time.Since(t0)))
	add("merging.candidates", float64(enum.TotalCandidates()))
	add("merging.sets_tested", float64(enum.SetsTested))
	add("merging.heap_mb", liveHeapMB())
	runtime.KeepAlive(enum)
}

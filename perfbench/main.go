package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"iamdb/internal/vfs"
)

// reps is how many times an untraced run sets up and measures; each
// end-to-end metric is the median over the repetitions.
const reps = 4

// setup_s is the median of at least reps setups.  A run adds setups,
// unmeasured, while all its setups together took under minSetupTotal
// (up to maxSetups), so a setup of a few milliseconds is timed often
// enough for its median to hold still.
const (
	minSetupTotal = time.Second
	maxSetups     = 20
)

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fillrandom, readrandom, ycsba_sync or kvsep_overwrite")
	seed := flag.Int64("seed", 1, "seed the workload's keys, values and operations are drawn from")
	seconds := flag.Int("seconds", 8, "length of the measured phase")
	traced := flag.Int("trace", 0, "1: print the per-layer ledger of a traced run instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory the data directories are created in")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload", strings.Join(workloadNames(), "|"),
			"--seed N --seconds S>=1 --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := newBench(w, *seed, *workdir)
	d := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = b.runTraced(d)
	} else {
		res, err = b.runUntraced(d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// outcome gathers a run's correctness: operations attempted and failed
// (errors and wrong results), and the reasons.
type outcome struct {
	attempted, failed int64
	errs              []string
}

func (o *outcome) phase(p *phase) {
	_, all, failed, _ := p.total()
	o.attempted += all
	o.failed += failed
	for _, c := range p.clients {
		o.errs = append(o.errs, c.errs...)
	}
}

func (o *outcome) verify(b *bench, s *store) {
	a, f, errs := b.verify(s.db)
	o.attempted += a
	o.failed += f
	o.errs = append(o.errs, errs...)
}

// check records a run-level failure that is not an operation's: a
// workload that did not do its work, a trace that dropped spans.
func (o *outcome) check(err error) {
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
}

func (o *outcome) result(ms []metric) *result {
	for _, e := range o.errs {
		fmt.Println("# error", e)
	}
	r := &result{Correct: len(o.errs) == 0 && o.failed == 0, Attempted: o.attempted,
		Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		r.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	return r
}

// runUntraced sets up and measures reps times, d/reps each, with
// tracing off, and reports the median of each end-to-end metric.
func (b *bench) runUntraced(d time.Duration) (*result, error) {
	var o outcome
	var setups []float64
	var runs [][]metric
	for r := 0; r < reps; r++ {
		s, took, err := b.setup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		p := b.measure(s, d/reps, 0)
		o.phase(p)
		o.check(b.w.proves(p))
		o.verify(b, s)
		runs = append(runs, b.endToEnd(p))
		rep := fmt.Sprintf("rep%d", r)
		printMetrics(rep, runs[r])
		printOps(p)
		printMetrics(rep, b.perOp(p, o.attempted, o.failed))
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	for sum(setups) < minSetupTotal.Seconds() && len(setups) < maxSetups {
		s, took, err := b.setup(false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	var e2e []metric
	for i, m := range runs[0] {
		vals := make([]float64, len(runs))
		for r := range runs {
			vals[r] = runs[r][i].value
		}
		e2e = append(e2e, metric{m.name, m.unit, median(vals)})
	}
	e2e = append(e2e, metric{"setup_s", "s", median(setups)})
	printMeta(b, d, false, len(setups))
	printMetrics("end_to_end", e2e)
	return o.result(e2e), nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// runTraced measures a traced phase of up to d/2 for the per-layer
// ledger, then the same operations untraced for the public-call ledger
// and the tracing overhead.
func (b *bench) runTraced(d time.Duration) (*result, error) {
	s, _, err := b.setup(true)
	if err != nil {
		return nil, err
	}
	p := b.measure(s, d/2, 0)
	var o outcome
	o.phase(p)
	o.check(b.w.proves(p))
	o.check(reconcile(s))
	if n := s.rec.Dropped(); n > 0 {
		o.check(fmt.Errorf("trace ring dropped %d spans", n))
	}
	o.verify(b, s)
	ledger := b.layers(s, p)
	printMeta(b, d, true, 1)
	if err := s.close(); err != nil {
		return nil, err
	}

	_, n, _, _ := p.total()
	u, _, err := b.setup(false)
	if err != nil {
		return nil, err
	}
	pu := b.measure(u, 2*d, n)
	o.phase(pu)
	o.check(b.w.proves(pu))
	o.verify(b, u)
	if err := u.close(); err != nil {
		return nil, err
	}
	_, nu, _, _ := pu.total()
	tracedRate := float64(n) / p.wall.Seconds()
	untracedRate := float64(nu) / pu.wall.Seconds()
	ledger = append(ledger, b.perOp(pu, o.attempted, o.failed)...)
	ledger = append(ledger,
		metric{"trace.untraced_ops_per_s", "ops/s", untracedRate},
		metric{"trace.overhead_frac", "fraction", 1 - tracedRate/untracedRate})
	printMetrics("per_layer", ledger)
	return o.result(ledger), nil
}

// reconcile waits for the DB's background work to go quiet and then
// demands that the device wrapper's byte totals equal Metrics().IO:
// both count every call since the reopen that ended setup.
func reconcile(s *store) error {
	var w, r int64
	var io vfs.IOSnapshot
	for i := 0; i < 500; i++ {
		a := s.tfs.snapshot()
		io = s.db.Metrics().IO
		w, r = 0, 0
		for _, c := range a {
			w += c.WriteBytes
			r += c.ReadBytes
		}
		if a == s.tfs.snapshot() && w == io.BytesWritten && r == io.BytesRead {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("device wrapper counted %d bytes written and %d read, Metrics().IO %d and %d",
		w, r, io.BytesWritten, io.BytesRead)
}

func printMetrics(kind string, ms []metric) {
	for _, m := range ms {
		fmt.Printf("# %-10s %-28s %16.6f %s\n", kind, m.name, m.value, m.unit)
	}
}

// printOps prints each operation type's sample count and tail.
func printOps(p *phase) {
	ops, _, _, _ := p.total()
	for k := range ops {
		if ops[k] == 0 {
			continue
		}
		l := p.lat(opKind(k))
		fmt.Printf("# %-10s %-5s n=%d p50=%.3fus p99=%.3fus p99.9=%.3fus (p99.9 not gated)\n",
			"samples", opNames[k], len(l), l.quantileUs(0.5), l.quantileUs(0.99), l.quantileUs(0.999))
	}
}

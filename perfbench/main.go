// Command perfbench is the repository's serving benchmark. It starts
// predictd (built from the tree under test) as its own process with -tick 0,
// drives it open-loop over HTTP from this single process with at most two
// connections, checks every served answer, and prints the end-to-end
// metrics of one workload. With -trace 1 it instead serves the same
// workload from an in-process API handler wrapped in spans, replays the op
// stream on a twin registry by direct calls into each layer, and prints the
// per-layer metrics.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload steady-point --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
// The exit code is 0 for a correct run, 1 for a failed or incorrect one,
// and 3 when the generator, not the daemon, fell behind.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"prodpred/internal/api"
	"prodpred/internal/obs"
)

const (
	// latencyLimitMS is the predict-call latency limit of the rate ladder.
	latencyLimitMS = 25
	// ladderRatio is the rate ratio of adjacent ladder steps.
	ladderRatio = 1.04
	// genLagLimitMS bounds the generator's median lateness (beyond any
	// wait for a free connection): above it the generator cannot keep pace
	// and the phase is invalid, as it is when its p99 lateness alone
	// exceeds the latency limit.
	genLagLimitMS = 1
	// warmDur is the untimed phase that lets caches fill before timing.
	warmDur = 2 * time.Second
)

// config is one benchmark invocation.
type config struct {
	workload *workload
	seed     int64
	seconds  time.Duration
	trace    bool
	predictd string // predictd binary
	workdir  string // scratch space for images and traces
	// rateScale multiplies every rate; stepDur is one ladder step. Tests
	// shrink both.
	rateScale float64
	stepDur   time.Duration
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "workload seed: derives the daemon seed, schedule, tenants and request shapes")
		seconds = flag.Int("seconds", 30, "seconds of measurement")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		bin     = flag.String("predictd", ".bench_build/predictd", "predictd binary under test")
		workdir = flag.String("workdir", ".bench_build", "directory for snapshot images and trace files")
	)
	flag.Parse()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() { terminate(<-sigs) }()
	w, err := findWorkload(*wname)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload <name>, -seconds >= 1 and -trace 0|1:", err)
		os.Exit(2)
	}
	cfg := config{
		workload: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		predictd: *bin, workdir: *workdir, rateScale: 1, stepDur: time.Second,
	}
	code := run(cfg, os.Stdout)
	killAll()
	os.Exit(code)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errInvalid marks a run whose generator fell behind.
var errInvalid = errors.New("invalid run: the generator fell behind")

// bench is one invocation's state.
type bench struct {
	config
	p     *plan
	dir   string // this run's scratch directory
	conns int
	g     *gate
	out   io.Writer
	m     map[string]metric
}

func run(cfg config, out io.Writer) int {
	b := &bench{config: cfg, p: newPlan(cfg.workload, cfg.seed), g: &gate{}, out: out, m: map[string]metric{}}
	b.conns = min(runtime.NumCPU(), 2)
	fp, _ := json.Marshal(newFingerprint(b.p, b.conns))
	fmt.Fprintf(out, "fingerprint %s\n", fp)
	if _, err := os.Stat(cfg.predictd); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: predictd binary:", err)
		return 1
	}
	var err error
	if b.dir, err = os.MkdirTemp(cfg.workdir, "run-"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dir)
	if cfg.trace {
		err = b.traced()
	} else {
		err = b.untraced()
	}
	killAll()
	if errors.Is(err, errInvalid) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		for _, f := range b.g.failures {
			fmt.Fprintln(os.Stderr, "FAIL", f)
		}
		return 3
	}
	if err != nil {
		b.g.check("run", err)
	}
	for _, f := range b.g.failures {
		fmt.Fprintln(out, "FAIL", f)
	}
	res := result{
		Correct: b.g.correct(), Attempted: b.g.attempted.Load(), Failed: b.g.failed.Load(),
		Metrics: b.m,
	}
	fmt.Fprintf(out, "metric failed_ratio %g ratio (%d of %d operations; %d of them refused as the reference refuses)\n",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted, b.g.refused.Load())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// set records a metric and prints it with its sample count.
func (b *bench) set(name string, v float64, unit string, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(b.out, "metric %s %v %s (n=%d, no finite value; reported as -1)\n", name, v, unit, n)
		v = -1
	} else {
		fmt.Fprintf(b.out, "metric %s %.6g %s (n=%d)\n", name, v, unit, n)
	}
	b.m[name] = metric{Value: v, Unit: unit}
}

// phase plans a phase at rate (a multiple of the reference rate).
func (b *bench) phase(rate float64, dur time.Duration) []op {
	return b.p.phase(rate*b.rateScale, dur)
}

// daemonArgs are predictd's flags for the workload.
func (b *bench) daemonArgs(image string) []string {
	if image != "" {
		return []string{"-restore", image}
	}
	return []string{"-seed", fmt.Sprint(b.p.DaemonSeed)}
}

// start launches predictd and returns it once it is ready: /healthz
// answers and every platform the workload uses has served a warm-up
// prediction. The duration is the set-up time.
func (b *bench) start(args []string) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(b.predictd, daemonProcs(), args...)
	if err != nil {
		return nil, 0, err
	}
	c := newConn()
	defer c.close()
	base := "http://" + d.addr
	for !healthy(c, base) {
		if d.exited() || time.Since(t0) > 2*time.Minute {
			d.stop()
			return nil, 0, fmt.Errorf("predictd never became healthy: %s", d.stderrTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := warmAll(c, base, b.p); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// prepFleet writes the fleet-batch snapshot image, untimed: predictd
// serves the fleet specs, every tenant is touched once, the probe tenants
// are probed, and POST /snapshot captures the fleet.
func (b *bench) prepFleet() (string, []probe, error) {
	spec, err := json.Marshal(b.p.fleetSpecs)
	if err != nil {
		return "", nil, err
	}
	specPath := filepath.Join(b.dir, "fleet.json")
	if err := os.WriteFile(specPath, spec, 0o644); err != nil {
		return "", nil, err
	}
	d, _, err := b.start([]string{"-specs", specPath})
	if err != nil {
		return "", nil, err
	}
	defer d.stop()
	c := newConn()
	defer c.close()
	base := "http://" + d.addr
	for i, name := range b.p.Names {
		if !scenarioTenant(i) {
			continue
		}
		// Instantiate the tenants the workload asks no prediction of.
		status, err := c.get(base, "/report?platform="+name)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, c.buf.String())
		}
		if err != nil {
			return "", nil, fmt.Errorf("touch %s: %w", name, err)
		}
	}
	var before []probe
	for _, i := range b.p.Probes {
		pr, err := serveProbe(c, base, b.p.Names[i])
		if err != nil {
			return "", nil, err
		}
		before = append(before, pr)
	}
	status, err := c.post(base, "/snapshot", nil, -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("snapshot: status %d", status)
	}
	if err != nil {
		return "", nil, err
	}
	image := filepath.Join(b.dir, "fleet.snap")
	return image, before, os.WriteFile(image, c.buf.Bytes(), 0o644)
}

// serveDaemon prepares and starts the daemon the workload measures. For
// fleet-batch it also checks that the restored tenants answer exactly as
// they did before the snapshot. It returns the snapshot image path ("" for
// the paper platforms) and every set-up time measured.
func (b *bench) serveDaemon(starts int) (*daemon, string, []float64, error) {
	var image string
	var before []probe
	if b.p.W.Fleet > 0 {
		var err error
		if image, before, err = b.prepFleet(); err != nil {
			return nil, "", nil, err
		}
	}
	var setups []float64
	var d *daemon
	for i := range starts {
		dd, dur, err := b.start(b.daemonArgs(image))
		if err != nil {
			return nil, "", nil, err
		}
		setups = append(setups, dur.Seconds())
		if i < starts-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	c := newConn()
	defer c.close()
	for j, i := range b.p.Probes[:len(before)] {
		got, err := serveProbe(c, "http://"+d.addr, b.p.Names[i])
		if err == nil {
			err = checkProbe(got, before[j])
		}
		b.g.check("restored probe "+b.p.Names[i], err)
	}
	return d, image, setups, nil
}

// refWindows is how many equal windows a reference phase is split into for
// the per-window diagnostics.
const refWindows = 12

// reference runs the warm-up phase and then the reference phase for dur on
// a daemon, and returns the reference phase with the daemon's CPU ms per
// completed request over it. It prints each window's predict-call median,
// CPU per request and the machine's steal share: on a shared virtual
// machine, time the hypervisor takes away shows up first in latency.
func (b *bench) reference(r *runner, pid int, warm, ref []op, dur time.Duration) (*phaseResult, float64, error) {
	r.runPhase("warm", 1, warmDur, warm)
	r.pid, r.windows = pid, refWindows
	res := r.runPhase("reference", 1, dur, ref)
	r.pid, r.windows = 0, 0
	b.describe(res)
	var p50s, cpus, steals []float64
	for i, w := range res.windows(refWindows) {
		p50s = append(p50s, median(w.predictCalls(b.p.W)))
		cpus = append(cpus, ms(res.cpu[i+1]-res.cpu[i])/float64(w.completed()))
		steals = append(steals, float64(res.steal[i+1]-res.steal[i])/float64(w.dur*time.Duration(runtime.NumCPU())))
	}
	fmt.Fprintf(b.out, "windows predict_p50_ms %.4g\nwindows cpu_ms_per_req %.4g\nwindows steal %.3f\n", p50s, cpus, steals)
	if lag, late := median(res.late), percentile(res.late, 99); lag > genLagLimitMS || late > latencyLimitMS {
		return nil, 0, fmt.Errorf("%w: reference phase sent p50 %.2f ms, p99 %.2f ms late", errInvalid, lag, late)
	}
	return res, ms(res.cpu[refWindows]-res.cpu[0]) / float64(res.completed()), nil
}

// describe prints one phase's calls, latencies and generator lateness.
func (b *bench) describe(res *phaseResult) {
	fmt.Fprintf(b.out, "phase %s rate %.3gx: %d requests completed, gen.late_p50_ms %.3f, gen.late_p99_ms %.3f\n",
		res.name, res.rate, res.completed(), median(res.late), percentile(res.late, 99))
	for k := range numKinds {
		lat := res.latencies(k)
		if len(lat) > 0 {
			fmt.Fprintf(b.out, "phase %s   %-8s n=%-6d p50 %.3f ms  p90 %.3f ms  p99 %.3f ms  max %.3f ms\n",
				res.name, k, len(lat), median(lat), percentile(lat, 90), percentile(lat, 99), percentile(lat, 100))
		}
	}
}

// bounded lists the end-to-end metrics the result line carries: the ones
// steady enough on a shared two-core virtual machine to be held to a bound.
// Latencies and the sustained rate follow the hypervisor's steal time, so
// they are printed for the record only.
var bounded = map[string]bool{"setup_s": true, "cpu_ms_per_req": true, "peak_rss_mb": true}

func (b *bench) untraced() error {
	starts := 7
	if b.p.W.Fleet > 0 {
		starts = 5
	}
	d, _, setups, err := b.serveDaemon(starts)
	if err != nil {
		return err
	}
	defer d.stop()
	r := newRunner(b.p, d.addr, b.conns, b.g)
	defer r.close()
	// Two thirds of the run measure the reference rate, one third climbs
	// the ladder.
	refDur := b.seconds * 2 / 3
	ref, cpu, err := b.reference(r, d.pid, b.phase(1, warmDur), b.phase(1, refDur), refDur)
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(d.pid)
	if err != nil {
		return err
	}
	sustained := b.ladder(r, b.seconds-refDur)
	r.checkFinalProbes()

	w := b.p.W
	b.set("setup_s", median(setups), "s", len(setups))
	pl := ref.predictCalls(w)
	b.set("predict_p50_ms", median(pl), "ms", len(pl))
	b.set("predict_p99_ms", percentile(pl, 99), "ms", len(pl))
	ol := ref.latencies(kObserve)
	b.set("observe_p99_ms", percentile(ol, 99), "ms", len(ol))
	al := ref.latencies(kAdvance)
	fmt.Fprintf(b.out, "advance_tail_ms is the p%g of advance latency\n", w.AdvanceTail)
	b.set("advance_tail_ms", percentile(al, w.AdvanceTail), "ms", len(al))
	b.set("sustained_rps", sustained, "req/s", 1)
	b.set("cpu_ms_per_req", cpu, "ms", ref.completed())
	b.set("peak_rss_mb", rss, "MB", 1)
	for name := range b.m {
		if !bounded[name] {
			delete(b.m, name)
		}
	}
	return nil
}

// step is one rung of the rate ladder.
type step struct {
	rate     float64 // multiple of the reference rate
	pass     bool
	achieved float64 // predictions completed per second
}

// ladder finds the highest rate step, on a geometric grid of ratio
// ladderRatio from the workload's starting step, at which predict calls
// meet latencyLimitMS at their tail percentile with no growing backlog. It
// brackets the knee in strides of eight steps and bisects to one step. The
// result is the predictions per second completed at that step.
func (b *bench) ladder(r *runner, budget time.Duration) float64 {
	deadline := time.Now().Add(budget)
	const stride = 8
	steps := map[int]step{}
	eval := func(k int) step {
		rate := b.p.W.LadderStart * math.Pow(ladderRatio, float64(k))
		res := r.runPhase(fmt.Sprintf("ladder%+d", k), rate, b.stepDur, b.phase(rate, b.stepDur))
		s := b.judge(res)
		steps[k] = s
		time.Sleep(b.stepDur / 5) // drain
		return s
	}
	timeLeft := func() bool { return time.Until(deadline) >= b.stepDur }
	lo, hi := math.MinInt, math.MaxInt
	if eval(0).pass {
		lo = 0
		for k := stride; timeLeft(); k += stride {
			if !eval(k).pass {
				hi = k
				break
			}
			lo = k
		}
	} else {
		hi = 0
		for k := -stride; k >= -8*stride && timeLeft(); k -= stride {
			if eval(k).pass {
				lo = k
				break
			}
			hi = k
		}
	}
	for lo != math.MinInt && hi != math.MaxInt && hi-lo > 1 && timeLeft() {
		mid := lo + (hi-lo)/2
		if eval(mid).pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == math.MinInt {
		fmt.Fprintln(b.out, "ladder: no step met the limit")
		return 0
	}
	resolved := hi != math.MaxInt && hi-lo == 1
	fmt.Fprintf(b.out, "ladder: highest passing step %.3gx (resolved to one step: %v)\n", steps[lo].rate, resolved)
	return steps[lo].achieved
}

// judge decides whether a ladder step met the latency limit: the predict
// calls' tail (the highest percentile with ten samples beyond it, p99 at
// most) within latencyLimitMS, failed calls counting as misses, and the
// wait for a free connection not growing from the first quarter of the
// step to the last.
func (b *bench) judge(res *phaseResult) step {
	lat := res.predictCalls(b.p.W)
	pct := tailPercentile(len(lat))
	tail := percentile(lat, pct)
	var waitFirst, waitLast []float64
	var done int
	var last time.Duration
	for _, r := range res.recs {
		if r.kind != kPredict && r.kind != kBatch {
			continue
		}
		wait := ms(r.sent - r.due)
		switch {
		case r.due < res.dur/4:
			waitFirst = append(waitFirst, wait)
		case r.due >= res.dur*3/4:
			waitLast = append(waitLast, wait)
		}
		if r.ok {
			done += r.items
			last = max(last, r.end)
		}
	}
	growing := median(waitLast) > 2*median(waitFirst)+1
	s := step{rate: res.rate, pass: tail <= latencyLimitMS && !growing, achieved: float64(done) / last.Seconds()}
	fmt.Fprintf(b.out, "ladder %.3gx: %d calls, p%g %.3f ms, wait %.3f -> %.3f ms, gen.late_p99_ms %.3f, %.1f pred/s, pass %v\n",
		res.rate, len(lat), pct, tail, median(waitFirst), median(waitLast), percentile(res.late, 99), s.achieved, s.pass)
	return s
}

// mixOf is each call kind's share of the requests a phase completed.
func mixOf(res *phaseResult) map[opKind]float64 {
	mix := map[opKind]float64{}
	total := float64(res.completed())
	for _, r := range res.recs {
		if r.ok {
			mix[r.kind] += float64(r.items) / total
		}
	}
	for _, r := range res.obs {
		if r.ok {
			mix[kObserve] += 1 / total
		}
	}
	return mix
}

// traced runs the workload untraced against predictd for the reference
// numbers, then the same op stream against an in-process traced server
// with the twin, and reports the per-layer metrics.
func (b *bench) traced() error {
	w := b.p.W
	d, image, _, err := b.serveDaemon(1)
	if err != nil {
		return err
	}
	warm, refOps := b.phase(1, warmDur), b.phase(1, b.seconds/2)
	r := newRunner(b.p, d.addr, b.conns, b.g)
	ref, cpuPerReq, err := b.reference(r, d.pid, warm, refOps, b.seconds/2)
	if err == nil {
		r.checkFinalProbes()
	}
	r.close()
	d.stop()
	if err != nil {
		return err
	}
	untracedP50 := median(ref.predictCalls(w))

	var img []byte
	if image != "" {
		if img, err = os.ReadFile(image); err != nil {
			return err
		}
	}
	spans := newSpanLog()
	metrics := obs.NewRegistry()
	reg, err := buildRegistry(b.p, metrics, img)
	if err != nil {
		return err
	}
	handler := api.NewHandler(reg, api.Options{Metrics: metrics})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: traceHandler(handler, spans)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		<-serveErr
	}()
	tw, err := newTwin(b.p, img, spans)
	if err != nil {
		return err
	}
	tr := newRunner(b.p, ln.Addr().String(), b.conns, b.g)
	defer tr.close()
	tr.tw = tw
	tr.runPhase("warm", 1, warmDur, warm)
	spans.take()
	tw.reset()

	heap := startHeapSampler(20 * time.Millisecond)
	var rt0, rt1 runtimeStats
	rt0.read()
	tref := tr.runPhase("traced", 1, b.seconds/2, refOps)
	rt1.read()
	heapPeak := heap.finish()
	b.describe(tref)
	refSpans := spans.take()
	lt := tw.analyze(refSpans)

	// Call kinds the workload does not send are timed on a short
	// coverage phase, so every layer metric exists on every workload.
	tw.reset()
	covOps := b.p.coverage()
	tr.runPhase("coverage", 1, 0, covOps)
	if len(lt.samples["fit_bic"]) == 0 {
		tw.refitAll()
	}
	covSpans := spans.take()
	lc := tw.analyze(covSpans)
	alloc := allocPerPredict(handler, b.p, 400)
	snapBytes, restoreMS, err := tw.snapshotRestore()
	if err != nil {
		return err
	}
	tr.checkFinalProbes()
	// The twin's own errors (a refusal one tick away from the server's,
	// say) leave its layer samples short but say nothing of the server.
	for _, e := range tw.errs {
		fmt.Fprintln(b.out, "twin error:", e)
	}
	if err := os.MkdirAll(filepath.Join(b.workdir, "traces"), 0o755); err != nil {
		return err
	}
	tracePath := filepath.Join(b.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, b.p.Seed))
	if err := writeSpans(tracePath, append(refSpans, covSpans...)); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace %d spans written to %s; %d layer-model results differed from the served raw value\n",
		len(refSpans)+len(covSpans), tracePath, lt.modelDiffs+lc.modelDiffs)

	// pick takes a layer's samples from the reference phase, or from the
	// coverage phase when the workload sends no such call.
	pick := func(ref, cov []float64) []float64 {
		if len(ref) > 0 {
			return ref
		}
		return cov
	}
	callKind := kPredict
	if w.Batch > 0 {
		callKind = kBatch
	}
	p50 := func(name string, xs []float64) { b.set(name, median(xs), "us", len(xs)) }
	p50("http.transport_self_us", lt.transport[callKind])
	p50("api.predict_self_us", pick(lt.self[kPredict], lc.self[kPredict]))
	p50("api.observe_self_us", pick(lt.self[kObserve], lc.self[kObserve]))
	b.set("api.alloc_bytes_per_op", alloc, "bytes", 400)
	p50("api.batch_self_us", pick(lt.self[kBatch], lc.self[kBatch]))
	sample := func(name string) []float64 { return pick(lt.samples[name], lc.samples[name]) }
	p50("predict.lookup_us", sample("lookup"))
	b.set("predict.cache_hit_ratio", lt.hitRatio, "ratio", len(lt.samples["lookup"]))
	p50("predict.predict_hit_us", sample("hit"))
	p50("predict.predict_miss_us", sample("miss"))
	p50("sched.partition_us", sample("partition"))
	p50("structural.sor_predict_us", sample("sor"))
	p50("nws.dist_report_us", sample("dist_report"))
	p50("predict.dist_grid_us", sample("grid"))
	adv := sample("advance")
	b.set("predict.advance_p50_us", median(adv), "us", len(adv))
	b.set("predict.advance_p99_us", percentile(adv, 99), "us", len(adv))
	p50("nws.run_until_us", sample("run_until"))
	stall := 0.0
	if len(lt.stall) > 0 {
		stall = percentile(lt.stall, 99)
	}
	b.set("predict.reader_stall_p99_us", stall, "us", len(lt.stall))
	fit := sample("fit_bic")
	b.set("modal.fit_bic_p50_us", median(fit), "us", len(fit))
	b.set("modal.fit_bic_p99_us", percentile(fit, 99), "us", len(fit))
	b.set("modal.fit_bic_calls", float64(len(lt.samples["fit_bic"])), "count", 1)
	p50("modal.fit_em_k4_us", sample("fit_em"))
	iters := sample("fit_em_iters")
	b.set("modal.fit_em_k4_iters", median(iters), "count", len(iters))
	p50("predict.observe_us", sample("observe"))
	p50("fleetsched.submit_us", sample("submit"))
	b.set("predict.restore_ms", restoreMS, "ms", 3)
	b.set("predict.snapshot_bytes", float64(snapBytes), "bytes", 1)
	b.set("predict.outstanding", float64(tw.outstanding()), "count", 1)
	b.set("runtime.heap_peak_mb", heapPeak, "MB", 1)
	gcFrac := 0.0
	if dt := rt1.totalCPU - rt0.totalCPU; dt > 0 {
		gcFrac = (rt1.gcCPU - rt0.gcCPU) / dt
	}
	b.set("runtime.gc_cpu_frac", gcFrac, "ratio", 1)
	b.set("gen.late_p99_ms", percentile(tref.late, 99), "ms", len(tref.late))
	tracedP50 := median(tref.predictCalls(w))
	fmt.Fprintf(b.out, "trace predict_p50_ms traced %.4f vs untraced %.4f\n", tracedP50, untracedP50)
	b.set("trace.overhead_ratio", tracedP50/untracedP50-1, "ratio", 1)

	lt.samples = mergeSamples(lt.samples, lc.samples)
	pred, terms, err := cpuModel(lt, mixOf(ref), w.itemsPerCall())
	if err != nil {
		return err
	}
	captured := reportModel(b.out, pred, terms, cpuPerReq)
	b.set("model.cpu_ms_per_req_mean", pred.Mean, "ms", 1)
	b.set("model.cpu_ms_per_req_spread", pred.Spread, "ms", 1)
	capture := 0.0
	if captured {
		capture = 1
	}
	b.set("model.cpu_ms_per_req_capture", capture, "ratio", 1)
	return nil
}

// mergeSamples fills layers missing from ref with cov's samples.
func mergeSamples(ref, cov map[string][]float64) map[string][]float64 {
	out := map[string][]float64{}
	for k, v := range cov {
		out[k] = v
	}
	for k, v := range ref {
		if len(v) > 0 {
			out[k] = v
		}
	}
	return out
}

// coverage plans a short phase with ten calls of every kind the workload
// does not send on its own: single predicts on the fleet, batches on the
// paper platforms, and schedule calls where the workload has none.
func (p *plan) coverage() []op {
	w := p.W
	rng := subRand(p.Seed, 1<<32)
	var ops []op
	const gap = 20 * time.Millisecond
	next := func() time.Duration { return gap * time.Duration(len(ops)) }
	for range 10 {
		if w.Batch > 0 {
			ops = append(ops, op{At: next(), Kind: kPredict, Plat: p.Served[rng.Intn(len(p.Served))], Shape: uint8(rng.Intn(len(w.Shapes))), Observe: 1, Factor: 1})
		} else {
			o := op{At: next(), Kind: kBatch, Factor: 1}
			for range 16 {
				o.Items = append(o.Items, int32(rng.Intn(len(p.Names))))
				o.Shapes = append(o.Shapes, uint8(rng.Intn(len(w.Shapes))))
			}
			ops = append(ops, o)
		}
	}
	if w.ScheduleRate == 0 {
		jobs := 10
		if w.Fleet > 0 {
			jobs = 2 // each job scores every tenant
		}
		for range jobs {
			ops = append(ops, op{At: next(), Kind: kSchedule, Shape: uint8(rng.Intn(len(w.Shapes)))})
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

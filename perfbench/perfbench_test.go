package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"prodpred/internal/api"
)

func TestScheduleHashFollowsSeed(t *testing.T) {
	hash := func(w *workload, seed int64) string {
		p := newPlan(w, seed)
		return scheduleHash(p.DaemonSeed, p.phase(1, 3*time.Second))
	}
	for _, w := range workloads {
		if a, b := hash(w, 7), hash(w, 7); a != b {
			t.Errorf("%s: seed 7 planned %s then %s", w.Name, a, b)
		}
		if a, b := hash(w, 7), hash(w, 8); a == b {
			t.Errorf("%s: seeds 7 and 8 both planned %s", w.Name, a)
		}
	}
}

func TestValidatePredictionRejectsBadAnswers(t *testing.T) {
	good := func() *predictResp {
		return &predictResp{Platform: "platform1", ID: 3, Mean: 2, Spread: 0.5, Lo: 1.5, Hi: 2.5, RawSpread: 0.5}
	}
	if err := validatePrediction(good(), "platform1", 0); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, mutate := range map[string]func(*predictResp){
		"wrong platform":    func(p *predictResp) { p.Platform = "platform2" },
		"nan mean":          func(p *predictResp) { p.Mean = math.NaN() },
		"negative mean":     func(p *predictResp) { p.Mean, p.Lo = -1, -2 },
		"mean outside":      func(p *predictResp) { p.Lo = 2.1 },
		"no id":             func(p *predictResp) { p.ID = 0 },
		"per-item error":    func(p *predictResp) { p.Error = "boom" },
		"missing grid":      func(p *predictResp) { p.Dist = nil },
		"non-monotone grid": func(p *predictResp) { p.Dist.Raw[1] = 0.1 },
	} {
		p := good()
		p.Dist = &distResp{Raw: []float64{1, 2, 3}, Calibrated: []float64{1, 2, 3}, Intervals: []intervalResp{{Level: 0.5, Lo: 1.8, Hi: 2.2}}}
		mutate(p)
		if err := validatePrediction(p, "platform1", 1); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestGateFiresOnWrongProbe serves the paper platforms in process and
// checks the final probes pass against the true reference and fail, one
// per probe, against a reference one ulp off.
func TestGateFiresOnWrongProbe(t *testing.T) {
	w, _ := findWorkload("steady-point")
	p := newPlan(w, 5)
	reg, err := buildRegistry(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(api.NewHandler(reg, api.Options{}))
	defer srv.Close()
	g := &gate{}
	r := newRunner(p, strings.TrimPrefix(srv.URL, "http://"), 1, g)
	defer r.close()
	r.checkFinalProbes()
	if g.failed.Load() != 0 {
		t.Fatalf("true reference failed the gate: %v", g.failures)
	}
	r.expect = func(i int, at float64) (probe, error) {
		pr, err := p.expectedProbe(i, at)
		pr.Mean = math.Nextafter(pr.Mean, math.Inf(1))
		return pr, err
	}
	r.checkFinalProbes()
	if got := g.failed.Load(); got != int64(len(p.Probes)) {
		t.Fatalf("wrong reference: %d failures, want %d", got, len(p.Probes))
	}
}

// TestRefusalIsReproduced uses a known refusal: with seed 85, tick-dist's
// platform 2 forecasts zero availability on machine 0 at virtual time
// 1,940 s, and every prediction there is refused.
func TestRefusalIsReproduced(t *testing.T) {
	w, _ := findWorkload("tick-dist")
	p := newPlan(w, 85)
	r := newRunner(p, "127.0.0.1:0", 1, &gate{})
	defer r.close()
	r.advanced[1].Store((1940 - paperWarmup) / advanceSeconds)
	const msg = "structural: division by zero-mean load[0]"
	if !r.reproduced(1, 0, msg) {
		t.Fatalf("reference did not refuse with %q", msg)
	}
	if r.reproduced(1, 0, "some other error") || r.reproduced(0, 0, msg) {
		t.Fatal("a refusal the reference does not make was accepted")
	}
	g := &gate{}
	g.refuse("predict", msg)
	if !g.correct() || g.failed.Load() != 1 {
		t.Fatalf("reproduced refusal: correct %v, failed %d", g.correct(), g.failed.Load())
	}
	g.check("predict", errors.New("wrong answer"))
	if g.correct() {
		t.Fatal("an unreproduced failure left the gate correct")
	}
}

var (
	buildOnce sync.Once
	predictd  string
	buildErr  error
)

// buildPredictd builds the daemon under test once per test binary.
func buildPredictd(t *testing.T) string {
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-test")
		if err != nil {
			buildErr = err
			return
		}
		predictd = filepath.Join(dir, "predictd")
		cmd := exec.Command("go", "build", "-o", predictd, "./cmd/predictd")
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Log(string(out))
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return predictd
}

// contract reads the metric names and units BENCHMARK.json declares.
func contract(t *testing.T) (e2e, layers map[string]string) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range c.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range c.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly at a tenth
// of its rates, untraced and traced, and checks the result line carries
// exactly the metrics BENCHMARK.json declares, with their units.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts predictd")
	}
	bin := buildPredictd(t)
	e2e, layers := contract(t)
	for name := range bounded {
		if _, ok := e2e[name]; !ok {
			t.Errorf("bounded metric %s is not in BENCHMARK.json", name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			var out bytes.Buffer
			code := run(config{
				workload: w, seed: 3, seconds: 2 * time.Second, trace: trace,
				predictd: bin, workdir: t.TempDir(), rateScale: 0.1, stepDur: 200 * time.Millisecond,
			}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: exit %d, no result line: %v\n%s", w.Name, trace, code, err, out.String())
			}
			if code != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: exit %d, result %+v\n%s", w.Name, trace, code, res, out.String())
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, m, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

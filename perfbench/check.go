package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"prodpred/internal/api"
	"prodpred/internal/predict"
)

// predictResp is the part of a served prediction the gate checks.
type predictResp struct {
	Platform  string    `json:"platform"`
	Time      float64   `json:"time"`
	ID        uint64    `json:"id"`
	Mean      float64   `json:"mean"`
	Spread    float64   `json:"spread"`
	Lo        float64   `json:"lo"`
	Hi        float64   `json:"hi"`
	RawSpread float64   `json:"raw_spread"`
	Dist      *distResp `json:"dist"`
	Error     string    `json:"error"`
}

type distResp struct {
	Raw        []float64      `json:"raw"`
	Calibrated []float64      `json:"calibrated"`
	Intervals  []intervalResp `json:"intervals"`
}

type intervalResp struct {
	Level float64 `json:"level"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func nondecreasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if !(xs[i] >= xs[i-1]) {
			return false
		}
	}
	return true
}

// validatePrediction checks one served prediction: it answers the right
// platform, its mean is finite and positive inside its interval, and when
// intervals were asked for, the distribution grid is monotone and every
// requested interval is answered in order.
func validatePrediction(pr *predictResp, platform string, levels int) error {
	switch {
	case pr.Error != "":
		return errors.New(pr.Error)
	case pr.Platform != platform:
		return fmt.Errorf("answered for %q, want %q", pr.Platform, platform)
	case !finite(pr.Mean, pr.Spread, pr.Lo, pr.Hi, pr.RawSpread) || !(pr.Mean > 0):
		return fmt.Errorf("mean %g spread %g not finite and positive", pr.Mean, pr.Spread)
	case !(pr.Lo <= pr.Mean && pr.Mean <= pr.Hi) || pr.RawSpread < 0:
		return fmt.Errorf("interval [%g, %g] does not hold mean %g", pr.Lo, pr.Hi, pr.Mean)
	case pr.ID == 0:
		return errors.New("no prediction id")
	}
	if levels == 0 {
		return nil
	}
	d := pr.Dist
	switch {
	case d == nil || len(d.Raw) == 0 || len(d.Raw) != len(d.Calibrated):
		return errors.New("no distribution grid")
	case !finite(d.Raw...) || !finite(d.Calibrated...) || !nondecreasing(d.Raw) || !nondecreasing(d.Calibrated):
		return fmt.Errorf("grid not monotone: raw %v calibrated %v", d.Raw, d.Calibrated)
	case len(d.Intervals) != levels:
		return fmt.Errorf("%d intervals for %d levels", len(d.Intervals), levels)
	}
	for _, iv := range d.Intervals {
		if !finite(iv.Lo, iv.Hi) || !(iv.Lo <= iv.Hi) {
			return fmt.Errorf("interval %+v inverted", iv)
		}
	}
	return nil
}

// probeShape is the request every correctness probe sends.
var probeShape = shape{N: 200, Iterations: 5, Strategy: "mean"}

// probe is what the gate compares: a platform's virtual time and the raw
// mean and half-width of the probe prediction.
type probe struct {
	Platform  string
	Time      float64
	Mean      float64
	RawSpread float64
}

// serveProbe asks the server for the probe prediction on one platform.
func serveProbe(c *conn, base, platform string) (probe, error) {
	body, _ := json.Marshal(wirePredict{Platform: platform, N: probeShape.N, Iterations: probeShape.Iterations, Strategy: probeShape.Strategy})
	status, err := c.post(base, "/predict", body, -1)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", status, c.buf.String())
	}
	if err != nil {
		return probe{}, fmt.Errorf("probe %s: %w", platform, err)
	}
	var pr predictResp
	if err := json.Unmarshal(c.buf.Bytes(), &pr); err != nil {
		return probe{}, fmt.Errorf("probe %s: %w", platform, err)
	}
	if err := validatePrediction(&pr, platform, 0); err != nil {
		return probe{}, fmt.Errorf("probe %s: %w", platform, err)
	}
	return probe{Platform: platform, Time: pr.Time, Mean: pr.Mean, RawSpread: pr.RawSpread}, nil
}

// checkProbe compares a served probe with the expected one, bit for bit.
func checkProbe(got, want probe) error {
	if got != want {
		return fmt.Errorf("probe mismatch: served %+v, expected %+v", got, want)
	}
	return nil
}

// spec returns the declarative spec predictd builds platform i from: the
// paper platforms as predictd's default registry declares them, or the
// fleet tenant from predict.FleetSpecs.
func (p *plan) spec(i int) (*predict.PlatformSpec, error) {
	if p.W.Fleet > 0 {
		s := p.fleetSpecs[i]
		return &s, nil
	}
	s, err := predict.SimulatedSpec(i+1, p.DaemonSeed)
	if err != nil {
		return nil, err
	}
	s.Warmup = paperWarmup
	s.FaultSeed = p.DaemonSeed + int64(i+1)
	return &s, nil
}

// expectedProbe computes the probe in process: a predict.Service built
// from the same spec and seed and advanced to virtual time t.
func (p *plan) expectedProbe(i int, t float64) (probe, error) {
	spec, err := p.spec(i)
	if err != nil {
		return probe{}, err
	}
	svc, err := predict.NewServiceFromSpec(spec, nil)
	if err != nil {
		return probe{}, err
	}
	if err := svc.AdvanceTo(t); err != nil {
		return probe{}, err
	}
	req, err := probeRequest(p.Names[i])
	if err != nil {
		return probe{}, err
	}
	pred, err := svc.Predict(req)
	if err != nil {
		return probe{}, err
	}
	return probe{Platform: p.Names[i], Time: t, Mean: pred.Raw.Mean, RawSpread: pred.Raw.Spread}, nil
}

func probeRequest(platform string) (predict.Request, error) {
	return api.PredictRequest{Platform: platform, N: probeShape.N, Iterations: probeShape.Iterations, Strategy: probeShape.Strategy}.ToRequest()
}

// reproduced reports whether the in-process reference refuses the same
// prediction with the same message at the virtual time the server's clock
// had around the call: an advance of the platform may have landed on the
// other connection while the call was in flight, so one tick either side
// of the advances counted so far is tried.
func (r *runner) reproduced(plat int32, sh uint8, msg string) bool {
	if msg == "" {
		return false
	}
	spec, err := r.p.spec(int(plat))
	if err != nil {
		return false
	}
	req, err := r.p.request(plat, sh)
	if err != nil {
		return false
	}
	n := r.advanced[plat].Load()
	for _, k := range []int64{n - 1, n, n + 1} {
		svc, err := predict.NewServiceFromSpec(spec, nil)
		if err != nil || k < 0 || svc.AdvanceTo(r.p.W.warmup()+advanceSeconds*float64(k)) != nil {
			continue
		}
		if _, err := svc.Predict(req); err != nil && err.Error() == msg {
			return true
		}
	}
	return false
}

// checkFinalProbes probes every probe platform on the server and compares
// each with the in-process reference at the virtual time the server's
// clock must have reached.
func (r *runner) checkFinalProbes() {
	c := r.conns[0]
	for _, i := range r.p.Probes {
		name := r.p.Names[i]
		t := r.p.W.warmup() + advanceSeconds*float64(r.advanced[i].Load())
		got, err := serveProbe(c, r.base, name)
		if err == nil {
			var want probe
			if want, err = r.expect(i, t); err == nil {
				err = checkProbe(got, want)
			}
		}
		r.check("final probe "+name, err)
	}
}

// healthy reports whether GET /healthz answers with a known status.
func healthy(c *conn, base string) bool {
	status, err := c.get(base, "/healthz")
	if err != nil || status != http.StatusOK {
		return false
	}
	var h struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(c.buf.Bytes(), &h) == nil && (h.Status == "ok" || h.Status == "degraded")
}

// warmAll serves one warm-up prediction on every platform the workload
// asks predictions of, in /predict/batch calls of at most
// api.MaxBatchSize items.
func warmAll(c *conn, base string, p *plan) error {
	var reqs []wirePredict
	for _, i := range p.Served {
		reqs = append(reqs, p.predictBody(i, 0))
	}
	for start := 0; start < len(reqs); start += api.MaxBatchSize {
		chunk := reqs[start:min(start+api.MaxBatchSize, len(reqs))]
		body, _ := json.Marshal(map[string]any{"requests": chunk})
		status, err := c.post(base, "/predict/batch", body, -1)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if status != http.StatusOK || !bytes.Contains(c.buf.Bytes(), []byte(`"errors":0}`)) {
			return fmt.Errorf("warm-up: status %d: %.200s", status, c.buf.String())
		}
	}
	return nil
}

package main

import (
	"fmt"
	"io"
	"sort"

	"prodpred/internal/stochastic"
)

// layerTerm is one layer's contribution to the per-request cost model.
type layerTerm struct {
	Layer string
	Value stochastic.Value // ms per request of the whole mix
}

// cpuModel applies the paper's method to the trace: every layer's self-time
// sample becomes a stochastic value (stochastic.FromSample, mean ± 2σ, on
// the fastest 99% of the sample), the
// tick-cache hit and miss modes combine by their occupancy
// (stochastic.WeightedCombine), and the layers of each call kind and then
// the kinds, weighted by their share of requests, add as unrelated values
// (Table 2). The result predicts the daemon's CPU per request; mix maps each
// kind to its share of requests completed.
func cpuModel(lt layerTimes, mix map[opKind]float64, itemsPerBatch int) (stochastic.Value, []layerTerm, error) {
	from := func(xs []float64) (stochastic.Value, bool) {
		// The slowest 1% are dropped first: on a shared machine they are
		// stalls of the whole machine, not costs of the layer.
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		v, err := stochastic.FromSample(s[:len(s)-len(s)/100])
		return v.MulPoint(1e-3), err == nil // µs -> ms
	}
	twinLayer := map[opKind]string{kBatch: "batch", kObserve: "observe", kAdvance: "advance", kSchedule: "submit"}
	var terms []layerTerm
	for k := range numKinds {
		w := mix[k]
		if w == 0 {
			continue
		}
		per := 1.0
		if k == kBatch {
			per = 1 / float64(itemsPerBatch)
		}
		add := func(layer string, v stochastic.Value) {
			terms = append(terms, layerTerm{Layer: layer, Value: v.MulPoint(w * per)})
		}
		if v, ok := from(lt.transport[k]); ok {
			add("http.transport("+k.String()+")", v)
		}
		if v, ok := from(lt.self[k]); ok {
			add("api("+k.String()+")", v)
		}
		if k == kPredict {
			if v, ok := from(lt.samples["lookup"]); ok {
				add("predict.lookup", v)
			}
			hit, okH := from(lt.samples["hit"])
			miss, okM := from(lt.samples["miss"])
			switch {
			case okH && okM:
				v, err := stochastic.WeightedCombine([]stochastic.Value{hit, miss}, []float64{lt.hitRatio, 1 - lt.hitRatio})
				if err != nil {
					return stochastic.Value{}, nil, err
				}
				add("predict.predict", v)
			case okH:
				add("predict.predict", hit)
			case okM:
				add("predict.predict", miss)
			}
		} else if v, ok := from(lt.samples[twinLayer[k]]); ok {
			add("predict."+twinLayer[k], v)
		}
	}
	if len(terms) == 0 {
		return stochastic.Value{}, nil, fmt.Errorf("no layer samples to compose")
	}
	vs := make([]stochastic.Value, len(terms))
	for i, t := range terms {
		vs[i] = t.Value
	}
	return stochastic.SumUnrelated(vs...), terms, nil
}

// reportModel prints the predicted interval, the measured value and each
// layer's predicted share of the mean.
func reportModel(out io.Writer, pred stochastic.Value, terms []layerTerm, measured float64) bool {
	captured := pred.Contains(measured)
	fmt.Fprintf(out, "model cpu_ms_per_req predicted %.4f ± %.4f ms [%.4f, %.4f], measured untraced %.4f ms, model.cpu_ms_per_req_capture=%v\n",
		pred.Mean, pred.Spread, pred.Lo(), pred.Hi(), measured, captured)
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].Value.Mean > terms[j].Value.Mean })
	for _, t := range terms {
		fmt.Fprintf(out, "model   %-28s %6.1f%%  %.4f ± %.4f ms\n", t.Layer, 100*t.Value.Mean/pred.Mean, t.Value.Mean, t.Value.Spread)
	}
	return captured
}

// Package model is an analytical performance model of the framework: it
// predicts, from first principles and without executing anything, the
// makespan, cold-start count, and mean resource usage of a workflow
// under a Table II paradigm. The paper motivates exactly this kind of
// "analysis of workflow configurations to identify commonalities and
// differences" — a closed-form model makes the measured behaviour
// explainable and lets users size platforms before running.
//
// The model reproduces the platform mechanics: per-phase demand sets a
// desired pod count, pods ramp by doubling per autoscaler tick with one
// cold start per wave, workers bound per-phase rounds, pods outlive
// phases by the stable window, and the always-on baseline holds its
// full reservation for the whole run. Validation tests check the
// predictions against actual RunWorkflow measurements.
package model

import (
	"fmt"
	"math"

	"wfserverless/internal/experiments"
	"wfserverless/internal/wfformat"
)

// Prediction is the model output, in the same units as
// experiments.Measurement.
type Prediction struct {
	MakespanS    float64
	ColdStarts   int
	MeanCPUCores float64
	MeanMemGB    float64
	// PhaseTimes are the predicted per-phase durations (nominal s).
	PhaseTimes []float64
}

// phaseInfo is the per-phase demand extracted from the workflow.
type phaseInfo struct {
	width   int
	maxWall float64 // longest task wall time in the phase (stragglers)
}

func phaseInfos(w *wfformat.Workflow) ([]phaseInfo, error) {
	phases, err := w.Phases()
	if err != nil {
		return nil, err
	}
	out := make([]phaseInfo, len(phases))
	for i, phase := range phases {
		pi := phaseInfo{width: len(phase)}
		for _, name := range phase {
			arg := w.Tasks[name].Command.Arguments[0]
			busy := arg.CPUWork / 100
			duty := arg.PercentCPU
			if duty < 0.05 {
				duty = 0.05
			}
			if wall := busy / duty; wall > pi.maxWall {
				pi.maxWall = wall
			}
		}
		out[i] = pi
	}
	return out, nil
}

// Predict models the workflow under the paradigm. Only the fine-grained
// and coarse-grained paradigms of Table II are supported.
func Predict(spec experiments.Spec, w *wfformat.Workflow, tn experiments.Tunables) (*Prediction, error) {
	infos, err := phaseInfos(w)
	if err != nil {
		return nil, err
	}
	const (
		clusterCores = 96.0
		gb           = float64(int64(1) << 30)
	)
	switch spec.Kind {
	case experiments.KindKnative:
		return predictKnative(spec, infos, tn, clusterCores, gb)
	case experiments.KindLocal:
		return predictLocal(spec, infos, tn, clusterCores, gb)
	}
	return nil, fmt.Errorf("model: unsupported platform kind %q", spec.Kind)
}

func predictKnative(spec experiments.Spec, infos []phaseInfo, tn experiments.Tunables, clusterCores, gb float64) (*Prediction, error) {
	W := float64(spec.Workers)
	cpuPerPod := W * tn.CPURequestPerWorker
	memPerPod := float64(tn.PodOverheadMem) + W*float64(tn.WorkerOverheadMem)
	maxPods := math.Floor(clusterCores / cpuPerPod)
	if spec.Coarse {
		// One whole-machine pod, deployed before the run: no cold
		// start, no scaling; phase time is bounded by worker rounds only.
		p := &Prediction{}
		var makespan float64
		for i, pi := range infos {
			rounds := math.Ceil(float64(pi.width) / W)
			pt := rounds * pi.maxWall
			p.PhaseTimes = append(p.PhaseTimes, pt)
			makespan += pt
			if i < len(infos)-1 {
				makespan += tn.Manager.PhaseDelay
			}
		}
		p.MakespanS = makespan
		p.MeanCPUCores = 46 // the reserved node
		p.MeanMemGB = (float64(tn.PodOverheadMem) + 1000*float64(tn.WorkerOverheadMem)) / gb
		return p, nil
	}

	pods := 0.0 // warm pods carried across phases
	coldStarts := 0.0
	var makespan float64
	var phaseTimes []float64
	// pod-seconds and mem-second integrals for resource means
	var cpuIntegral, memIntegral float64

	for i, pi := range infos {
		desired := math.Ceil(float64(pi.width) / W)
		if desired > maxPods {
			desired = maxPods
		}
		if desired < 1 {
			desired = 1
		}
		// Ramp by doubling per tick from the current warm count.
		ramp := 0.0
		cur := pods
		if cur < 1 {
			cur = 1
			if pods == 0 {
				ramp += tn.AutoscalePeriod // first tick creates pod #1
			}
		}
		ticks := 0.0
		for c := cur; c < desired; c = c * 2 {
			ticks++
		}
		ramp += ticks * tn.AutoscalePeriod
		if desired > pods {
			ramp += tn.ColdStart // the last wave's cold start gates the stragglers
			coldStarts += desired - pods
		}
		rounds := math.Ceil(float64(pi.width) / (desired * W))
		work := rounds * pi.maxWall
		pt := ramp + work
		phaseTimes = append(phaseTimes, pt)

		// Pods accumulate during the ramp (average of warm count and
		// target) and hold at `desired` during the work window.
		podSeconds := (pods+desired)/2*ramp + desired*work
		cpuIntegral += cpuPerPod * podSeconds
		memIntegral += memPerPod * podSeconds

		makespan += pt
		if i < len(infos)-1 {
			makespan += tn.Manager.PhaseDelay
			// Pods stay warm across the inter-phase delay (the gap is
			// shorter than the stable window with default tunables).
			cpuIntegral += desired * cpuPerPod * tn.Manager.PhaseDelay
			memIntegral += desired * memPerPod * tn.Manager.PhaseDelay
		}
		pods = desired
	}
	// After the last phase the final pods linger for the stable window,
	// but measurement stops at workflow end; nothing to add.
	p := &Prediction{
		MakespanS:    makespan,
		ColdStarts:   int(coldStarts),
		PhaseTimes:   phaseTimes,
		MeanCPUCores: cpuIntegral / makespan,
		MeanMemGB:    memIntegral / makespan / gb,
	}
	return p, nil
}

func predictLocal(spec experiments.Spec, infos []phaseInfo, tn experiments.Tunables, clusterCores, gb float64) (*Prediction, error) {
	containers := float64(tn.LCContainers)
	if spec.Coarse {
		containers = 1
	}
	totalWorkers := containers * float64(spec.Workers)
	var makespan float64
	var phaseTimes []float64
	for i, pi := range infos {
		rounds := math.Ceil(float64(pi.width) / totalWorkers)
		pt := rounds * pi.maxWall
		phaseTimes = append(phaseTimes, pt)
		makespan += pt
		if i < len(infos)-1 {
			makespan += tn.Manager.PhaseDelay
		}
	}
	p := &Prediction{
		MakespanS:  makespan,
		PhaseTimes: phaseTimes,
	}
	switch {
	case spec.Coarse:
		p.MeanCPUCores = 46
	case spec.CR:
		p.MeanCPUCores = containers * tn.LCCPUsPerContainer
	default:
		// NoCR: only actual busy cores count; approximate by total
		// busy-core-seconds over the makespan.
		var busy float64
		for _, pi := range infos {
			busy += float64(pi.width) * 0.9 * pi.maxWall // duty ~0.9
		}
		p.MeanCPUCores = busy / makespan
		if p.MeanCPUCores > clusterCores {
			p.MeanCPUCores = clusterCores
		}
	}
	memPerContainer := float64(tn.PodOverheadMem) + float64(spec.Workers)*float64(tn.WorkerOverheadMem)
	p.MeanMemGB = containers * memPerContainer / gb
	return p, nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// The daemon's JSON shapes, declared here rather than imported: the
// benchmark reaches the serving layers only over HTTP, so a refactor of
// their Go types cannot break it.

type point struct {
	Config struct {
		Mem  int `json:"mem"`
		Core int `json:"core"`
	} `json:"config"`
	Speedup    float64 `json:"speedup"`
	NormEnergy float64 `json:"norm_energy"`
}

func (p point) valid() bool {
	return p.Config.Mem > 0 && p.Config.Core > 0 && finitePos(p.Speedup) && finitePos(p.NormEnergy)
}

func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) }

// jsonStrict decodes one JSON document, rejecting a malformed body.
func jsonStrict(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("malformed reply: %v", err)
	}
	return nil
}

type decision struct {
	Chosen     point `json:"chosen"`
	Feasible   bool  `json:"feasible"`
	Candidates int   `json:"candidates"`
}

// govStats is the governor's decision-cache accounting on /select.
type govStats struct {
	Hits        float64 `json:"hits"`
	Misses      float64 `json:"misses"`
	FrontHits   float64 `json:"front_hits"`
	SweepHits   float64 `json:"sweep_hits"`
	SweepMisses float64 `json:"sweep_misses"`
}

type selectResp struct {
	ModelVersion string `json:"model_version"`
	Results      []struct {
		Decision *decision `json:"decision"`
		Error    string    `json:"error"`
	} `json:"results"`
	Cache govStats `json:"cache"`
}

// decodeSelect parses a single-kernel /select reply and checks its decision
// is well formed.
func decodeSelect(body []byte) (selectResp, decision, error) {
	var r selectResp
	if err := json.Unmarshal(body, &r); err != nil {
		return r, decision{}, err
	}
	if len(r.Results) != 1 {
		return r, decision{}, fmt.Errorf("%d results for one kernel", len(r.Results))
	}
	res := r.Results[0]
	if res.Error != "" || res.Decision == nil {
		return r, decision{}, fmt.Errorf("no decision: %q", res.Error)
	}
	if !res.Decision.Chosen.valid() || res.Decision.Candidates <= 0 {
		return r, decision{}, fmt.Errorf("malformed decision %+v", *res.Decision)
	}
	if r.ModelVersion == "" {
		return r, decision{}, errors.New("no model_version")
	}
	return r, *res.Decision, nil
}

type predictResp struct {
	ModelVersion string `json:"model_version"`
	Results      []struct {
		Pareto []point `json:"pareto"`
		Error  string  `json:"error"`
	} `json:"results"`
}

// decodePredict parses a single-kernel /predict reply and checks its front.
func decodePredict(body []byte) (string, []point, error) {
	var r predictResp
	if err := json.Unmarshal(body, &r); err != nil {
		return "", nil, err
	}
	if len(r.Results) != 1 || r.Results[0].Error != "" || len(r.Results[0].Pareto) == 0 {
		return "", nil, fmt.Errorf("no Pareto front in %.200s", body)
	}
	for _, p := range r.Results[0].Pareto {
		if !p.valid() {
			return "", nil, fmt.Errorf("malformed front point %+v", p)
		}
	}
	return r.ModelVersion, r.Results[0].Pareto, nil
}

// health is the part of GET /healthz the benchmark reads.
type health struct {
	Cache struct {
		Hits   float64 `json:"hits"`
		Misses float64 `json:"misses"`
	} `json:"cache"`
	Planes struct {
		Read    struct{ Shed float64 } `json:"read"`
		Control struct{ Shed float64 } `json:"control"`
	} `json:"planes"`
	Panics float64 `json:"panics"`
}

type observeResp struct {
	ModelVersion string `json:"model_version"`
	Results      []struct {
		Ingest *struct {
			Stored         bool   `json:"stored"`
			RetrainStarted bool   `json:"retrain_started"`
			Reason         string `json:"reason"`
		} `json:"ingest"`
		Error string `json:"error"`
	} `json:"results"`
}

// adaptStatus is the part of GET /adapt/status the benchmark reads.
type adaptStatus struct {
	Retrain struct {
		InProgress    bool    `json:"in_progress"`
		Retrains      float64 `json:"retrains"`
		Activated     float64 `json:"activated"`
		Rejected      float64 `json:"rejected"`
		LastWarmStart *struct {
			MatchedRows float64 `json:"matched_rows"`
		} `json:"last_warm_start"`
	} `json:"retrain"`
	WAL *struct {
		LastError string `json:"last_error"`
	} `json:"wal"`
}

type registerReq struct {
	Node   string `json:"node"`
	Addr   string `json:"addr"`
	Device string `json:"device"`
}

type registerResp struct {
	Node     string `json:"node"`
	Active   string `json:"active"`
	Snapshot *struct {
		Manifest struct {
			Hash string `json:"hash"`
		} `json:"manifest"`
	} `json:"snapshot"`
}

type budgetResp struct {
	Plan *struct {
		Allocations []struct {
			Node   string `json:"node"`
			Kernel string `json:"kernel"`
		} `json:"allocations"`
	} `json:"plan"`
	Replans float64 `json:"replans"`
	Nodes   []struct {
		Node string `json:"node"`
	} `json:"nodes"`
	LastPush *struct {
		Targets int      `json:"targets"`
		Pushed  int      `json:"pushed"`
		Skipped int      `json:"skipped"`
		Errors  []string `json:"errors"`
	} `json:"last_push"`
}

package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"archos/internal/obs"
)

// TestFlightRecorderDeterministic is the flight-recorder determinism
// gate: the same seeded load run, twice, must produce byte-identical
// anomaly dumps, trace tails, and critical-path tables — in both the
// undefended and the defended configuration. This is the property the
// CI cmp step rests on: a postmortem dump is evidence, and evidence
// must be reproducible. The dumps are also pinned, by the SHA-256 of
// their JSONL: a change to the engine that moves one event byte fails
// here even though it moves both runs alike. A change that moves the
// dumps on purpose re-pins them and says why.
func TestFlightRecorderDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name       string
		controls   LoadControls
		dump, tail string // SHA-256 of the JSONL of AnomalyDump and TraceTail
	}{
		{"undefended", ControlsOff(),
			"0363f548f1925452030cb6110658cd0cde036214ad952fccdb950e4a486aa59d",
			"f77e01a75b3bcca22b536abff65b6d87b9fc6c06eaa6b747be17a714803fa10f"},
		{"defended", ControlsOn(),
			"89d923f4123e854bf812ea3b7dc8d28d07a26adaf7f99308c6abb183e4440a58",
			"29906f01c57e60f21ffdcd6637b4c334bf0af389fae7c0ea7b0acc69d45db11e"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultLoadConfig()
			cfg.Controls = tc.controls
			r1, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := jsonl(t, r1.AnomalyDump), jsonl(t, r2.AnomalyDump); !bytes.Equal(got, want) {
				t.Error("same-seed runs produced different anomaly dumps")
			}
			if got, want := jsonl(t, r1.TraceTail), jsonl(t, r2.TraceTail); !bytes.Equal(got, want) {
				t.Error("same-seed runs produced different trace tails")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(jsonl(t, r1.AnomalyDump))); got != tc.dump {
				t.Errorf("anomaly dump SHA-256 %s, pinned %s", got, tc.dump)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(jsonl(t, r1.TraceTail))); got != tc.tail {
				t.Errorf("trace tail SHA-256 %s, pinned %s", got, tc.tail)
			}
			tab1 := obs.CriticalPath(r1.TraceTail, nil).Table("critpath").String()
			tab2 := obs.CriticalPath(r2.TraceTail, nil).Table("critpath").String()
			if tab1 != tab2 {
				t.Errorf("same-seed runs produced different critpath tables:\n%s\nvs\n%s", tab1, tab2)
			}
			if r1.TraceRetained != r2.TraceRetained || r1.TraceDropped != r2.TraceDropped {
				t.Errorf("ring bookkeeping differs: %d/%d vs %d/%d",
					r1.TraceRetained, r1.TraceDropped, r2.TraceRetained, r2.TraceDropped)
			}
		})
	}
}

// TestFlightRecorderAnomalyTriggers checks that the always-on recorder
// catches each configuration's signature incident at its onset: the
// undefended run's goodput collapse, the defended run's shed storm —
// and that the bounded ring really is bounded through a run that emits
// far more events than it retains.
func TestFlightRecorderAnomalyTriggers(t *testing.T) {
	cfg := DefaultLoadConfig()

	cfg.Controls = ControlsOff()
	off, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Controls = ControlsOn()
	on, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if k := anomalyKinds(off); !strings.Contains(k, "goodput_collapse") {
		t.Errorf("undefended run logged anomalies %q, want a goodput_collapse", k)
	}
	if k := anomalyKinds(on); !strings.Contains(k, "shed_storm") {
		t.Errorf("defended run logged anomalies %q, want a shed_storm", k)
	}

	for name, r := range map[string]*LoadResult{"undefended": off, "defended": on} {
		if len(r.Anomalies) == 0 {
			t.Fatalf("%s run logged no anomalies", name)
		}
		// Onset logging: a two-second collapse is one incident, not one
		// anomaly per window it persists.
		if len(r.Anomalies) > 4 {
			t.Errorf("%s run logged %d anomalies; onsets only, expected a handful", name, len(r.Anomalies))
		}
		if r.AnomalyDump == nil {
			t.Fatalf("%s run tripped triggers but snapshotted no dump", name)
		}
		if got := len(r.AnomalyDump); got == 0 || got > flightRecorderCap {
			t.Errorf("%s anomaly dump holds %d events, want 1..%d", name, got, flightRecorderCap)
		}
		if r.TraceRetained > flightRecorderCap {
			t.Errorf("%s ring retained %d events, cap %d", name, r.TraceRetained, flightRecorderCap)
		}
		if r.TraceDropped == 0 {
			t.Errorf("%s ring dropped nothing; a full soak must outrun the ring", name)
		}
		// The dump ends at the incident: its last event is the anomaly
		// marker the trigger emitted.
		last := r.AnomalyDump[len(r.AnomalyDump)-1]
		if last.Layer != "anomaly" {
			t.Errorf("%s dump ends with %s/%s, want the anomaly marker", name, last.Layer, last.Name)
		}
	}

	// The anomaly log itself is part of the JSON result; the two
	// configurations must disagree about what went wrong.
	if anomalyKinds(off) == anomalyKinds(on) {
		t.Error("defended and undefended runs logged identical anomaly kinds")
	}
}

// TestAnomalyOnsetDetection drives checkAnomaly directly through a
// synthetic curve: triggers log at onset, persistence is suppressed, a
// healthy window re-arms, and sub-threshold windows never fire.
func TestAnomalyOnsetDetection(t *testing.T) {
	cfg := DefaultLoadConfig()
	r := &loadRun{cfg: cfg, res: &LoadResult{}}
	r.rec = obs.NewFlightRecorder(fixedClock{}, 64)
	r.res.Curve = []LoadPoint{
		{Offered: 500, Goodput: 400},                              // healthy
		{Offered: 500, Goodput: 0, Shed: shedStormThreshold},      // storm onset
		{Offered: 500, Goodput: 0, Shed: shedStormThreshold + 50}, // storm persists
		{Offered: 500, Goodput: 0},                                // collapse onset (different kind)
		{Offered: collapseMinOffered - 1, Goodput: 0},             // below guard: healthy
		{Offered: 500, Goodput: 0},                                // collapse again: new onset
		{Offered: 500, Goodput: 1},                                // healthy
	}
	for i := range r.res.Curve {
		r.checkAnomaly(i)
	}
	var kinds []string
	for _, a := range r.res.Anomalies {
		kinds = append(kinds, a.Kind)
	}
	want := []string{"shed_storm", "goodput_collapse", "goodput_collapse"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("anomaly onsets = %v, want %v", kinds, want)
	}
	if r.res.Anomalies[0].Window != 1 || r.res.Anomalies[1].Window != 3 || r.res.Anomalies[2].Window != 5 {
		t.Errorf("anomaly windows = %+v, want onsets at 1, 3, 5", r.res.Anomalies)
	}
	if r.res.AnomalyDump == nil {
		t.Error("first onset did not snapshot the ring")
	}
}

type fixedClock struct{}

func (fixedClock) Clock() float64 { return 0 }

func jsonl(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b, events); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func anomalyKinds(r *LoadResult) string {
	var kinds []string
	for _, a := range r.Anomalies {
		kinds = append(kinds, a.Kind)
	}
	return strings.Join(kinds, ",")
}

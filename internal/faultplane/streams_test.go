package faultplane

import (
	"fmt"
	"reflect"
	"testing"
)

// streamTally is the part of a crash schedule's counters every
// reference preset reports: draws taken, crashes fired and the virtual
// time of the last one (0 for a schedule without a clock).
type streamTally struct {
	Points, Crashes int
	LastAt          float64
}

// streamOutcome is everything a preset's decision stream shows to the
// server that consults it: which calls fired, the final counters, the
// calls after which Fatal() changed its reading, and the last reading.
type streamOutcome struct {
	Fired []int
	Tally streamTally
	Flips []int
	Fatal bool
}

// schedule is the two faces a server consults.
type schedule interface {
	Crasher
	Fatalist
}

// streamPresets drives the three reference crash schedules the soaks
// use. The crash and kill-forever schedules are asked about all three
// windows in turn, as a server's request path asks; the rejoin
// schedule is asked about receipt and pre-reply alternately, on a fake
// clock that advances 50 µs every time it is read. Fatal() is read
// after every call.
var streamPresets = []struct {
	name   string
	points []CrashPoint
	calls  int
	build  func(seed int64, clock func() float64) (schedule, func() streamTally)
}{
	{"ChaosCrash", []CrashPoint{CrashOnRecv, CrashPreApply, CrashPreReply}, 6000,
		func(seed int64, _ func() float64) (schedule, func() streamTally) {
			c := NewCrash(ChaosCrash(seed), nil)
			return c, func() streamTally { n := c.Counts(); return streamTally{n.Points, n.Crashes, 0} }
		}},
	{"ChaosKill", []CrashPoint{CrashOnRecv, CrashPreApply, CrashPreReply}, 6000,
		func(seed int64, _ func() float64) (schedule, func() streamTally) {
			c := NewCrash(ChaosKill(seed), nil)
			return c, func() streamTally { n := c.Counts(); return streamTally{n.Points, n.Crashes, 0} }
		}},
	{"ChaosRejoin", []CrashPoint{CrashOnRecv, CrashPreReply}, 20000,
		func(seed int64, clock func() float64) (schedule, func() streamTally) {
			k := NewCrash(ChaosRejoin(seed), clock)
			return k, func() streamTally { n := k.Counts(); return streamTally{n.Points, n.Crashes, n.LastAt} }
		}},
}

func driveStream(build func(int64, func() float64) (schedule, func() streamTally), points []CrashPoint, calls int, seed int64) streamOutcome {
	now := 0.0
	s, tally := build(seed, func() float64 { now += 50; return now })
	var out streamOutcome
	for i := 0; i < calls; i++ {
		if s.CrashNow(points[i%len(points)]) {
			out.Fired = append(out.Fired, i)
		}
		if f := s.Fatal(); f != out.Fatal {
			out.Flips = append(out.Flips, i)
			out.Fatal = f
		}
	}
	out.Tally = tally()
	return out
}

// streamWant holds each preset's outcome at seeds 1, 7 and 1991.
var streamWant = map[string]streamOutcome{
	"ChaosCrash/1":     {Fired: []int{106, 113, 114, 466, 1029, 1046}, Tally: streamTally{6000, 6, 0}},
	"ChaosCrash/7":     {Fired: []int{23, 367, 385, 770, 781, 804}, Tally: streamTally{6000, 6, 0}},
	"ChaosCrash/1991":  {Fired: []int{397, 491, 507, 963, 1260, 1761}, Tally: streamTally{6000, 6, 0}},
	"ChaosKill/1":      {Fired: []int{106, 113, 114}, Tally: streamTally{6000, 3, 0}, Flips: []int{114}, Fatal: true},
	"ChaosKill/7":      {Fired: []int{23, 367, 385}, Tally: streamTally{6000, 3, 0}, Flips: []int{385}, Fatal: true},
	"ChaosKill/1991":   {Fired: []int{397, 491, 507}, Tally: streamTally{6000, 3, 0}, Flips: []int{507}, Fatal: true},
	"ChaosRejoin/1":    {Fired: []int{212, 226, 228}, Tally: streamTally{10000, 3, 11550}, Flips: []int{212, 6227}},
	"ChaosRejoin/7":    {Fired: []int{46, 126, 262}, Tally: streamTally{10000, 3, 13250}, Flips: []int{46, 6261}},
	"ChaosRejoin/1991": {Fired: []int{130, 164, 174}, Tally: streamTally{10000, 3, 8850}, Flips: []int{130, 6173}},
}

// TestChaosPresetDecisionStreams pins the decision streams of the
// reference crash schedules at three seeds each: a change to how a
// plane draws, counts or reports Fatal() moves every soak that uses
// it, so it must show here first.
func TestChaosPresetDecisionStreams(t *testing.T) {
	for _, p := range streamPresets {
		for _, seed := range []int64{1, 7, 1991} {
			key := fmt.Sprintf("%s/%d", p.name, seed)
			got := driveStream(p.build, p.points, p.calls, seed)
			if want := streamWant[key]; !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\n got %+v\nwant %+v", key, got, want)
			}
		}
	}
}

package des

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.At(FromSeconds(3), func() { order = append(order, 3) })
	e.At(FromSeconds(1), func() { order = append(order, 1) })
	e.At(FromSeconds(2), func() { order = append(order, 2) })
	n := e.Run(FromSeconds(10))
	if n != 3 || len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, n = %d", order, n)
	}
	if e.Now() != FromSeconds(10) {
		t.Fatalf("now = %v", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(FromSeconds(1), func() { order = append(order, i) })
	}
	e.Run(FromSeconds(2))
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(FromSeconds(5), func() { ran = true })
	e.Run(FromSeconds(2))
	if ran {
		t.Fatal("future event executed")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run(FromSeconds(6))
	if !ran {
		t.Fatal("event not executed on resumed run")
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := NewEngine(1)
	e.At(FromSeconds(5), func() {
		ran := false
		e.At(FromSeconds(1), func() { ran = true }) // in the past
		e.Run(FromSeconds(5))                       // nested run is a no-op pattern; use After semantics
		_ = ran
	})
	// Simply ensure no panic and the clamped event fires.
	fired := false
	e.At(FromSeconds(6), func() {})
	e.After(FromSeconds(-3), func() { fired = true })
	e.Run(FromSeconds(10))
	if !fired {
		t.Fatal("clamped event did not fire")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			e.After(FromSeconds(1), chain)
		}
	}
	e.At(0, chain)
	e.Run(FromSeconds(100))
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestExpMean(t *testing.T) {
	e := NewEngine(42)
	mean := FromDuration(time.Millisecond)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += float64(e.Exp(mean))
	}
	got := sum / n
	if math.Abs(got-float64(mean))/float64(mean) > 0.05 {
		t.Fatalf("exp mean = %v, want ~%v", got, mean)
	}
	if e.Exp(0) != 0 || e.Exp(-5) != 0 {
		t.Fatal("non-positive mean must return 0")
	}
}

func TestUniformBounds(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 1000; i++ {
		v := e.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("uniform out of bounds: %v", v)
		}
	}
	if e.Uniform(5, 5) != 5 || e.Uniform(9, 3) != 9 {
		t.Fatal("degenerate bounds mishandled")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine(7)
		var times []Time
		st := NewStation(e, 2, 0, func(int) { times = append(times, e.Now()) })
		for i := 0; i < 50; i++ {
			e.At(e.Uniform(0, FromSeconds(1)), func() {
				st.Submit(e.Exp(FromDuration(10*time.Millisecond)), i)
			})
		}
		e.Run(FromSeconds(100))
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStationSerialService(t *testing.T) {
	e := NewEngine(1)
	var done []Time
	st := NewStation(e, 1, 0, func(int) { done = append(done, e.Now()) })
	svc := FromDuration(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		st.Submit(svc, i)
	}
	e.Run(FromSeconds(1))
	want := []Time{svc, 2 * svc, 3 * svc}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
	if st.Served() != 3 || st.MaxQueue() != 2 {
		t.Fatalf("served=%d maxq=%d", st.Served(), st.MaxQueue())
	}
}

func TestStationParallelService(t *testing.T) {
	e := NewEngine(1)
	var done []Time
	st := NewStation(e, 3, 0, func(int) { done = append(done, e.Now()) })
	svc := FromDuration(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		st.Submit(svc, i)
	}
	e.Run(FromSeconds(1))
	for i := range done {
		if done[i] != svc {
			t.Fatalf("parallel job %d finished at %v", i, done[i])
		}
	}
}

func TestStationQueueLimitDrops(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1, 2, nil)
	svc := FromDuration(time.Millisecond)
	accepted := 0
	for i := 0; i < 5; i++ {
		if st.Submit(svc, i) {
			accepted++
		}
	}
	if accepted != 3 { // 1 in service + 2 queued
		t.Fatalf("accepted = %d, want 3", accepted)
	}
	if st.Dropped() != 2 {
		t.Fatalf("dropped = %d", st.Dropped())
	}
}

func TestStationThroughputMatchesCapacity(t *testing.T) {
	// A station with c servers and deterministic service W saturates at
	// exactly c/W jobs per second under closed-loop offered load.
	e := NewEngine(3)
	const servers = 4
	svc := FromDuration(time.Millisecond)
	var st *Station
	st = NewStation(e, servers, 0, func(int) {
		if e.Now() < FromSeconds(10) {
			st.Submit(svc, 0)
		}
	})
	for i := 0; i < 64; i++ {
		e.At(0, func() { st.Submit(svc, 0) })
	}
	e.Run(FromSeconds(10))
	rate := float64(st.Served()) / 10
	want := float64(servers) / svc.Seconds() // 4000/s
	if math.Abs(rate-want)/want > 0.02 {
		t.Fatalf("rate = %.0f, want ~%.0f", rate, want)
	}
	if bf := st.BusyFraction(); bf < 0.98 {
		t.Fatalf("busy fraction = %.3f at saturation", bf)
	}
}

func TestStationBusyFractionPartialLoad(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1, 0, nil)
	// One job of 1s within a 4s horizon: busy fraction = 0.25.
	st.Submit(FromSeconds(1), 0)
	e.Run(FromSeconds(4))
	if bf := st.BusyFraction(); math.Abs(bf-0.25) > 0.01 {
		t.Fatalf("busy fraction = %v", bf)
	}
	if u := st.Utilization(); math.Abs(u-0.25) > 0.01 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestStationMeanWait(t *testing.T) {
	e := NewEngine(1)
	st := NewStation(e, 1, 0, nil)
	svc := FromSeconds(1)
	st.Submit(svc, 0) // waits 0
	st.Submit(svc, 1) // waits 1s
	e.Run(FromSeconds(10))
	if mw := st.MeanWait(); mw != FromSeconds(0.5) {
		t.Fatalf("mean wait = %v", mw)
	}
}

func TestCeil(t *testing.T) {
	if Ceil(0) != 0 {
		t.Fatal("Ceil(0)")
	}
	if Ceil(1e-15) != 1 {
		t.Fatal("tiny positive must be >= 1ns")
	}
	if Ceil(1.5) != FromSeconds(1.5) {
		t.Fatalf("Ceil(1.5) = %v", Ceil(1.5))
	}
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(2).Seconds() != 2 {
		t.Fatal("roundtrip broken")
	}
	if FromDuration(time.Second) != FromSeconds(1) {
		t.Fatal("duration conversion broken")
	}
}

// TestPopOrderMatchesStableSort checks the calendar against a reference:
// random schedules with many tied times, some events posted and some
// scheduled with At, some scheduled from inside running events, must run in
// (time, scheduling order) — a stable sort of everything scheduled by time.
func TestPopOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		at Time
		id int
	}
	for trial := 0; trial < 300; trial++ {
		e := NewEngine(int64(trial))
		var scheduled, ran []entry
		var h Handler
		var schedule func(at Time)
		fire := func(id int) {
			ran = append(ran, scheduled[id])
			if rng.Intn(3) == 0 {
				schedule(e.Now() + Time(rng.Intn(3)))
			}
		}
		h = e.Handle(fire)
		schedule = func(at Time) {
			id := len(scheduled)
			scheduled = append(scheduled, entry{at, id})
			if rng.Intn(2) == 0 {
				e.Post(at, h, id)
			} else {
				e.At(at, func() { fire(id) })
			}
		}
		for i, n := 0, 1+rng.Intn(64); i < n; i++ {
			schedule(Time(rng.Intn(8)))
		}
		e.Run(1 << 40)
		want := append([]entry(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if !reflect.DeepEqual(ran, want) {
			t.Fatalf("trial %d: ran %v, want %v", trial, ran, want)
		}
	}
}

// TestStationCycleAllocatesNothing pins a warmed station's submit →
// complete cycle at 0 allocations, queueing included.
func TestStationCycleAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	completed := 0
	st := NewStation(e, 2, 0, func(int) { completed++ })
	cycle := func() {
		for i := 0; i < 64; i++ {
			st.Submit(Time(1+i%3), i)
		}
		e.Run(e.Now() + 1000)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.1f allocations per 64 jobs, want 0", allocs)
	}
	if completed != 102*64 { // one warm cycle here, one in AllocsPerRun, 100 measured
		t.Fatalf("completed %d jobs, want %d", completed, 102*64)
	}
}

// TestAtRunAllocatesNothing pins At → Run at 0 allocations once the
// calendar and At's callback slots have grown.
func TestAtRunAllocatesNothing(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	fn := func() { ran++ }
	cycle := func() {
		for i := 0; i < 64; i++ {
			e.After(Time(i%5), fn)
		}
		e.Run(e.Now() + 10)
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("%.1f allocations per 64 events, want 0", allocs)
	}
	if ran != 102*64 {
		t.Fatalf("ran %d events, want %d", ran, 102*64)
	}
}

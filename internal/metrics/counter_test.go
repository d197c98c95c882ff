package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatal("zero value not zero")
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d, want 5", c.Value())
	}
	if old := c.Reset(); old != 5 {
		t.Fatalf("reset returned %d, want 5", old)
	}
	if c.Value() != 0 {
		t.Fatal("reset did not zero")
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("value = %d, want 16000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("value = %d", g.Value())
	}
}

func TestTimeSeries(t *testing.T) {
	origin := time.Unix(100, 0)
	ts := NewTimeSeries(origin, time.Second)
	ts.Observe(origin, 1)
	ts.Observe(origin.Add(500*time.Millisecond), 1)
	ts.Observe(origin.Add(1500*time.Millisecond), 3)
	ts.Observe(origin.Add(4*time.Second), 7)
	got := ts.Values()
	want := []float64{2, 3, 0, 0, 7}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTimeSeriesBeforeOrigin(t *testing.T) {
	origin := time.Unix(100, 0)
	ts := NewTimeSeries(origin, time.Second)
	ts.Observe(origin.Add(-5*time.Second), 2)
	got := ts.Values()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("values = %v, want [2]", got)
	}
}

func TestTimeSeriesDefaultInterval(t *testing.T) {
	ts := NewTimeSeries(time.Now(), 0)
	if ts.Interval() != time.Second {
		t.Fatalf("interval = %v", ts.Interval())
	}
}

func TestTimeSeriesEmpty(t *testing.T) {
	ts := NewTimeSeries(time.Now(), time.Second)
	if ts.Len() != 0 || len(ts.Values()) != 0 {
		t.Fatal("empty series not empty")
	}
}

package sim

import (
	"testing"
	"testing/quick"
)

func TestCatalogMatchesTableI(t *testing.T) {
	want := map[string]struct {
		vcpus int
		mem   float64
		net   int
		price float64
	}{
		"c3.large":   {2, 3.75, 250, 0.188},
		"c3.xlarge":  {4, 7.5, 500, 0.376},
		"c3.2xlarge": {8, 15, 1000, 0.752},
		"c3.4xlarge": {16, 30, 2000, 1.504},
		"c3.8xlarge": {32, 60, 10000, 3.008},
		"r3.xlarge":  {4, 30.5, 500, 0.455},
		"r3.2xlarge": {8, 61, 1000, 0.910},
	}
	if len(Catalog) != len(want) {
		t.Fatalf("catalog size = %d, want %d", len(Catalog), len(want))
	}
	for _, it := range Catalog {
		w, ok := want[it.Name]
		if !ok {
			t.Errorf("unexpected type %q", it.Name)
			continue
		}
		if it.VCPUs != w.vcpus || it.MemoryGB != w.mem || it.NetworkMbps != w.net || it.PriceUSD != w.price {
			t.Errorf("%s = %+v, want %+v", it.Name, it, w)
		}
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) != len(Catalog) {
		t.Fatalf("len = %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("not sorted: %v", names)
		}
	}
}

func TestCapacityCalibration(t *testing.T) {
	// Headline: 10 c3.xlarge QoS nodes (40 vCPUs) must exceed 100k req/s.
	n := Node{Type: C3XLarge, Layer: LayerQoS}
	if total := 10 * n.Capacity(); total <= 100_000 {
		t.Fatalf("10-node QoS capacity = %.0f, want > 100000", total)
	}
	// A single c3.8xlarge QoS node saturates near 90k (Fig 8a plateau).
	big := Node{Type: C38XLarge, Layer: LayerQoS}
	if c := big.Capacity(); c < 85_000 || c > 98_000 {
		t.Fatalf("c3.8xlarge QoS capacity = %.0f, want ~90k", c)
	}
}

func TestVerticalBeatsHorizontalForQoS(t *testing.T) {
	// Fig 12: at equal vCPUs, one big node slightly out-performs many
	// small ones (per-node overhead paid once).
	one := Node{Type: C38XLarge, Layer: LayerQoS}.Capacity()
	var eight float64
	for i := 0; i < 8; i++ {
		eight += Node{Type: C3XLarge, Layer: LayerQoS}.Capacity()
	}
	if one <= eight {
		t.Fatalf("vertical %.0f <= horizontal %.0f", one, eight)
	}
	if one > eight*1.1 {
		t.Fatalf("vertical advantage too large: %.0f vs %.0f", one, eight)
	}
}

func TestRouterVerticalNearHorizontal(t *testing.T) {
	// Fig 9: router scaling is technique-agnostic.
	one := Node{Type: C38XLarge, Layer: LayerRouter}.Capacity()
	var eight float64
	for i := 0; i < 8; i++ {
		eight += Node{Type: C3XLarge, Layer: LayerRouter}.Capacity()
	}
	diff := (one - eight) / eight
	if diff < -0.02 || diff > 0.02 {
		t.Fatalf("router vertical/horizontal differ by %.1f%%", diff*100)
	}
}

func TestCPUUtilizationProperties(t *testing.T) {
	for _, layer := range []Layer{LayerRouter, LayerQoS} {
		for _, it := range CSeries {
			n := Node{Type: it, Layer: layer}
			cap := n.Capacity()
			if u := n.CPUUtilization(0); u < 0 || u > 0.2 {
				t.Errorf("%s/%s idle util = %.2f", layer, it.Name, u)
			}
			half := n.CPUUtilization(cap / 2)
			full := n.CPUUtilization(cap)
			over := n.CPUUtilization(cap * 10)
			if !(half < full) {
				t.Errorf("%s/%s util not increasing: %.2f >= %.2f", layer, it.Name, half, full)
			}
			if full != over {
				t.Errorf("%s/%s util not clamped at capacity", layer, it.Name)
			}
			if full > 1 {
				t.Errorf("%s/%s util > 1", layer, it.Name)
			}
		}
	}
}

func TestQoSUnderutilizationAtSaturation(t *testing.T) {
	// Fig 10b: significant CPU under-utilization on the QoS layer.
	n := Node{Type: C38XLarge, Layer: LayerQoS}
	u := n.CPUUtilization(n.Capacity())
	if u > 0.9 {
		t.Fatalf("QoS saturation util = %.2f, want < 0.9 (lock-idle effect)", u)
	}
	// Routers deplete their CPU when small (Fig 7b).
	r := Node{Type: C3Large, Layer: LayerRouter}
	if u := r.CPUUtilization(r.Capacity()); u < 0.9 {
		t.Fatalf("small router saturation util = %.2f, want >= 0.9", u)
	}
}

func TestCPUUtilizationNeverNegativeOrAboveOne(t *testing.T) {
	f := func(load float64, pick uint8) bool {
		it := Catalog[int(pick)%len(Catalog)]
		for _, layer := range []Layer{LayerRouter, LayerQoS} {
			u := Node{Type: it, Layer: layer}.CPUUtilization(load)
			if u < 0 || u > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestServiceTimeConsistentWithCapacity(t *testing.T) {
	for _, layer := range []Layer{LayerRouter, LayerQoS} {
		for _, it := range CSeries {
			n := Node{Type: it, Layer: layer}
			// Capacity == Workers / ServiceTime by construction.
			got := float64(n.Workers()) / n.ServiceTime()
			want := n.Capacity()
			if diff := (got - want) / want; diff < -1e-9 || diff > 1e-9 {
				t.Errorf("%s/%s: capacity %.2f vs workers/svc %.2f", layer, it.Name, want, got)
			}
		}
	}
}

func TestInstanceTypeString(t *testing.T) {
	if C3Large.String() != "c3.large(2vCPU,3.8GB)" && C3Large.String() != "c3.large(2vCPU,3.8GB)" {
		// Just ensure it contains the name; exact float formatting checked loosely.
		if got := C3Large.String(); len(got) == 0 {
			t.Fatal("empty String()")
		}
	}
}

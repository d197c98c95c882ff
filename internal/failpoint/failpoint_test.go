package failpoint

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// Test sites are registered once per process; individual tests arm and
// disarm them.
var (
	fpTestBasic = New("failpointtest/site/basic")
	fpTestProb  = New("failpointtest/site/prob")
	fpTestPeer  = New("failpointtest/site/peer")
	fpTestHTTP  = New("failpointtest/site/http")
	fpTestPanic = New("failpointtest/site/panic")
)

// postFailpoints sends one POST to a /debug/failpoints endpoint.
func postFailpoints(base string, q url.Values) error {
	resp, err := http.Post(base+"/debug/failpoints?"+q.Encode(), "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("failpoint: remote arm: %s", resp.Status)
	}
	return nil
}

// listRemote fetches the remote registry state.
func listRemote(base string) ([]Info, error) {
	resp, err := http.Get(base + "/debug/failpoints")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("failpoint: remote list: %s", resp.Status)
	}
	var out []Info
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

func TestDisarmedByDefault(t *testing.T) {
	if fpTestBasic.Armed() {
		t.Fatal("fresh failpoint is armed")
	}
	if o := fpTestBasic.Eval(); o.Kind != Off {
		t.Fatalf("disarmed Eval fired: %+v", o)
	}
}

func TestArmDisarmCycle(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm(fpTestBasic.Name(), Action{Kind: Drop}); err != nil {
		t.Fatal(err)
	}
	if !fpTestBasic.Armed() {
		t.Fatal("not armed after Arm")
	}
	if o := fpTestBasic.Eval(); o.Kind != Drop {
		t.Fatalf("want Drop, got %v", o.Kind)
	}
	if err := Disarm(fpTestBasic.Name()); err != nil {
		t.Fatal(err)
	}
	if fpTestBasic.Armed() {
		t.Fatal("armed after Disarm")
	}
}

func TestFailpointNameConvention(t *testing.T) {
	for name, want := range map[string]bool{
		"qosserver/ha/pull":           true,
		"qosserver/handoff/apply":     true,
		"qosserver/ha/apply-snapshot": true,
		"transport/client/send":       true,
		"a/b":                         true,
		"single":                      false,
		"Upper/case":                  false,
		"trailing/":                   false,
		"/leading":                    false,
		"with space/x":                false,
		"under_score/x":               false,
		"":                            false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestNewPanicsOnBadSite: a malformed or already-registered name panics at
// registration, so a bad site fails every binary and test that links it.
func TestNewPanicsOnBadSite(t *testing.T) {
	for _, name := range []string{"Bad/x", fpTestBasic.Name()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%q) did not panic", name)
				}
			}()
			New(name)
		}()
	}
	if Lookup("Bad/x") != nil {
		t.Error("a rejected name was registered")
	}
}

func TestArmUnknownNameErrors(t *testing.T) {
	if err := Arm("failpointtest/no/such-site", Action{Kind: Drop}); err == nil {
		t.Fatal("arming an unknown name must error")
	}
}

func TestErrorActionCarriesMessage(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm(fpTestBasic.Name(), Action{Kind: Error, Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	o := fpTestBasic.Eval()
	if o.Kind != Error || o.Err == nil {
		t.Fatalf("want Error outcome with error, got %+v", o)
	}
	if !strings.Contains(o.Err.Error(), "boom") || !strings.Contains(o.Err.Error(), fpTestBasic.Name()) {
		t.Fatalf("error should name the failpoint and message: %v", o.Err)
	}
}

func TestCountBoundsFires(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm(fpTestBasic.Name(), Action{Kind: Drop, Count: 3}); err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if fpTestBasic.Eval().Kind == Drop {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("count=3 fired %d times", fired)
	}
	if !fpTestBasic.Armed() {
		t.Fatal("exhausted failpoint should stay armed (inert)")
	}
}

func TestProbabilityIsDeterministicUnderSeed(t *testing.T) {
	t.Cleanup(DisarmAll)
	run := func(seed uint64) []bool {
		if err := Arm(fpTestProb.Name(), Action{Kind: Drop, P: 0.3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 200)
		for i := range out {
			out[i] = fpTestProb.Eval().Kind == Drop
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	// 200 draws at p=0.3: expect ~60; a wildly off count means the draw
	// mapping is broken, not unlucky.
	if fired < 30 || fired > 90 {
		t.Fatalf("p=0.3 fired %d/200", fired)
	}
	c := run(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestPartitionFiresOnlyForListedPeers(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm(fpTestPeer.Name(), Action{Kind: Partition, Peers: []string{"10.0.0.1:1"}}); err != nil {
		t.Fatal(err)
	}
	if o := fpTestPeer.EvalPeer("10.0.0.1:1"); o.Kind != Partition || o.Err == nil {
		t.Fatalf("listed peer: got %+v", o)
	}
	if o := fpTestPeer.EvalPeer("10.0.0.2:1"); o.Kind != Off {
		t.Fatalf("unlisted peer fired: %+v", o)
	}
	if o := fpTestPeer.Eval(); o.Kind != Off {
		t.Fatalf("peerless Eval of a partition fired: %+v", o)
	}
	// Empty peer list cuts everything.
	if err := Arm(fpTestPeer.Name(), Action{Kind: Partition}); err != nil {
		t.Fatal(err)
	}
	if o := fpTestPeer.EvalPeer("anything"); o.Kind != Partition {
		t.Fatalf("empty peer set should cut all peers: %+v", o)
	}
}

func TestPanicAction(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm(fpTestPanic.Name(), Action{Kind: Panic}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	fpTestPanic.Eval()
}

func TestArmSpecPendingAppliesAtRegistration(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := armSpec("failpointtest/site/late=delay(2ms,n=5)"); err != nil {
		t.Fatal(err)
	}
	// The pending entry is visible (Registered: false) so env typos show.
	found := false
	for _, info := range List() {
		if info.Name == "failpointtest/site/late" && !info.Registered && info.Armed != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("pending spec not listed")
	}
	late := New("failpointtest/site/late")
	if !late.Armed() {
		t.Fatal("pending spec did not arm the site at registration")
	}
	if o := late.Eval(); o.Kind != Delay || o.Delay != 2*time.Millisecond {
		t.Fatalf("got %+v", o)
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	cases := []string{
		"off",
		"drop",
		"drop(p=0.2,seed=7)",
		"delay(2ms)",
		"delay(2ms,n=10)",
		"dup(p=0.5)",
		"error(msg=connection refused)",
		"partition(peers=10.0.0.1:1|10.0.0.2:1)",
		"panic",
	}
	for _, spec := range cases {
		a, err := parseAction(spec)
		if err != nil {
			t.Fatalf("parseAction(%q): %v", spec, err)
		}
		if got := formatAction(a); got != spec {
			t.Errorf("round trip %q → %q", spec, got)
		}
	}
}

func TestParsePositionalArgs(t *testing.T) {
	a, err := parseAction("error(connection refused)")
	if err != nil || a.Err != "connection refused" {
		t.Fatalf("positional error message: %+v, %v", a, err)
	}
	a, err = parseAction("delay(5ms)")
	if err != nil || a.Delay != 5*time.Millisecond {
		t.Fatalf("positional delay: %+v, %v", a, err)
	}
	a, err = parseAction("partition(a:1|b:2)")
	if err != nil || len(a.Peers) != 2 {
		t.Fatalf("positional peers: %+v, %v", a, err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"explode", "drop(p=2)", "drop(p=x)", "delay", "delay(xyz)",
		"drop(", "drop(n=-1)",
	} {
		if _, err := parseAction(spec); err == nil {
			t.Errorf("parseAction(%q) accepted", spec)
		}
	}
	if _, err := parseSet("noequals"); err == nil {
		t.Error("parseSet without '=' accepted")
	}
}

func TestHTTPHandler(t *testing.T) {
	t.Cleanup(DisarmAll)
	mux := http.NewServeMux()
	mux.Handle("/debug/failpoints", Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if err := postFailpoints(srv.URL, url.Values{"name": {fpTestHTTP.Name()}, "action": {"drop(p=0.25,seed=9)"}}); err != nil {
		t.Fatal(err)
	}
	if !fpTestHTTP.Armed() {
		t.Fatal("remote arm did not arm")
	}
	infos, err := listRemote(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.Name == fpTestHTTP.Name() {
			found = true
			if info.Armed != "drop(p=0.25,seed=9)" {
				t.Fatalf("remote list shows %q", info.Armed)
			}
		}
	}
	if !found {
		t.Fatal("armed failpoint missing from remote list")
	}
	if err := postFailpoints(srv.URL, url.Values{"name": {"failpointtest/no/such-site"}, "action": {"drop"}}); err == nil {
		t.Fatal("remote arm of unknown name must fail")
	}
	if err := postFailpoints(srv.URL, url.Values{"all": {"off"}}); err != nil {
		t.Fatal(err)
	}
	if fpTestHTTP.Armed() {
		t.Fatal("remote DisarmAll left failpoint armed")
	}
}

package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// testPeers builds (without starting) the peer-health records of a node
// "self:1" whose cluster also holds peers, with a controllable clock and
// zero jitter so breaker transitions are exact. Probe outcomes are fed
// through observe directly: the rise/fall state machine under test is
// independent of the goroutine scheduling.
func testPeers(t *testing.T, peers ...string) (*peerHealth, *obs.Observer, *time.Time) {
	t.Helper()
	view, err := cluster.NewView(append([]string{"self:1"}, peers...), 0)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	h := newPeerHealth(view, "self:1", 0, o.Metrics(), nil)
	now := time.Unix(1000, 0)
	h.now = func() time.Time { return now }
	h.jitter = func() float64 { return 0 }
	return h, o, &now
}

// breakerOf reads a peer's breaker state.
func breakerOf(h *peerHealth, addr string) breakerState {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// upOf reads a peer's probe verdict.
func upOf(h *peerHealth, addr string) bool {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.up
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	h, o, _ := testPeers(t, "p:1")
	for i := 0; i < defaultBreakerThreshold-1; i++ {
		h.proxied("p:1", false)
		if !h.allow("p:1") {
			t.Fatalf("breaker refused after %d failures, threshold is %d", i+1, defaultBreakerThreshold)
		}
		if got := breakerOf(h, "p:1"); got != breakerClosed {
			t.Fatalf("state after %d failures = %v, want closed", i+1, got)
		}
	}
	h.proxied("p:1", false)
	if got := breakerOf(h, "p:1"); got != breakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if h.allow("p:1") {
		t.Error("open breaker allowed a request before backoff elapsed")
	}
	if g := o.Metrics().Gauge("service_breaker_state", obs.L("peer", "p:1")).Value(); g != float64(breakerOpen) {
		t.Errorf("service_breaker_state = %v, want %d", g, breakerOpen)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	h, _, _ := testPeers(t, "p:1")
	h.proxied("p:1", false)
	h.proxied("p:1", false)
	h.proxied("p:1", true)
	h.proxied("p:1", false)
	h.proxied("p:1", false)
	if got := breakerOf(h, "p:1"); got != breakerClosed {
		t.Fatalf("state = %v, want closed (success reset the count)", got)
	}
}

func TestBreakerHalfOpenTrial(t *testing.T) {
	h, _, now := testPeers(t, "p:1")
	for i := 0; i < defaultBreakerThreshold; i++ {
		h.proxied("p:1", false)
	}
	// Backoff not yet elapsed: refused.
	if h.allow("p:1") {
		t.Fatal("allowed before backoff")
	}
	*now = now.Add(defaultBreakerBackoff)
	// Backoff elapsed: exactly one trial admitted.
	if !h.allow("p:1") {
		t.Fatal("trial refused after backoff elapsed")
	}
	if got := breakerOf(h, "p:1"); got != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", got)
	}
	if h.allow("p:1") {
		t.Error("second concurrent trial admitted while one is in flight")
	}
	// Trial succeeds: closed, backoff reset.
	h.proxied("p:1", true)
	if got := breakerOf(h, "p:1"); got != breakerClosed {
		t.Fatalf("state after trial success = %v, want closed", got)
	}
	if b := h.peers["p:1"].backoff; b != defaultBreakerBackoff {
		t.Errorf("backoff = %v, want reset to %v", b, defaultBreakerBackoff)
	}
}

func TestBreakerHalfOpenFailureDoublesBackoff(t *testing.T) {
	h, _, now := testPeers(t, "p:1")
	for i := 0; i < defaultBreakerThreshold; i++ {
		h.proxied("p:1", false)
	}
	backoff := defaultBreakerBackoff
	for round := 0; round < 10; round++ {
		*now = now.Add(backoff)
		if !h.allow("p:1") {
			t.Fatalf("round %d: trial refused after %v backoff", round, backoff)
		}
		h.proxied("p:1", false) // trial failed
		if got := breakerOf(h, "p:1"); got != breakerOpen {
			t.Fatalf("round %d: state = %v, want re-opened", round, got)
		}
		backoff = min(2*backoff, defaultBreakerMax)
		if b := h.peers["p:1"].backoff; b != backoff {
			t.Fatalf("round %d: backoff = %v, want %v", round, b, backoff)
		}
	}
	if b := h.peers["p:1"].backoff; b != defaultBreakerMax {
		t.Errorf("backoff never capped: %v", b)
	}
}

// Probe verdicts drive the breaker: a down verdict opens it, an up
// verdict closes it, and a down verdict on an already-open breaker
// leaves its half-open deadline alone.
func TestBreakerForceTransitions(t *testing.T) {
	h, _, now := testPeers(t, "p:1")
	verdict := func(ok bool) {
		for i := 0; i < max(defaultProbeFall, defaultProbeRise); i++ {
			h.observe("p:1", ok)
		}
	}
	verdict(false)
	if got := breakerOf(h, "p:1"); got != breakerOpen {
		t.Fatalf("state after probe-down = %v, want open", got)
	}
	if h.allow("p:1") {
		t.Error("probe-down breaker allowed a request")
	}
	verdict(true)
	if got := breakerOf(h, "p:1"); got != breakerClosed {
		t.Fatalf("state after probe-up = %v, want closed", got)
	}
	if !h.allow("p:1") {
		t.Error("probe-up breaker refused a request")
	}
	// A down verdict on an already-open breaker must not extend the
	// deadline.
	for i := 0; i < defaultBreakerThreshold; i++ {
		h.proxied("p:1", false)
	}
	until := h.peers["p:1"].until
	*now = now.Add(100 * time.Millisecond)
	verdict(false)
	if h.peers["p:1"].until != until {
		t.Error("probe-down on open breaker pushed the half-open deadline")
	}
}

func TestProberFallThenRise(t *testing.T) {
	h, o, _ := testPeers(t, "a:1")
	if !upOf(h, "a:1") {
		t.Fatal("peer must start optimistically up")
	}
	// One failure is a blip, not a verdict (fall threshold 2).
	h.observe("a:1", false)
	if !upOf(h, "a:1") || h.view.Epoch() != 1 {
		t.Fatalf("verdict flipped on a single failure: up=%v epoch=%d", upOf(h, "a:1"), h.view.Epoch())
	}
	// Second consecutive failure flips down, and the view follows.
	h.observe("a:1", false)
	if upOf(h, "a:1") {
		t.Fatal("peer still up after fall-threshold failures")
	}
	if h.view.Alive("a:1") || h.view.Epoch() != 2 {
		t.Fatalf("down verdict not applied to the view: alive=%v epoch=%d", h.view.Alive("a:1"), h.view.Epoch())
	}
	if g := o.Metrics().Gauge("service_peer_up", obs.L("peer", "a:1")).Value(); g != 0 {
		t.Errorf("service_peer_up = %v, want 0", g)
	}
	// One success is not recovery (rise threshold 2)...
	h.observe("a:1", true)
	if upOf(h, "a:1") {
		t.Fatal("peer rose after a single success")
	}
	// ...two consecutive successes are.
	h.observe("a:1", true)
	if !upOf(h, "a:1") {
		t.Fatal("peer still down after rise-threshold successes")
	}
	if !h.view.Alive("a:1") || h.view.Epoch() != 3 {
		t.Fatalf("up verdict not applied to the view: alive=%v epoch=%d", h.view.Alive("a:1"), h.view.Epoch())
	}
	if g := o.Metrics().Gauge("service_peer_up", obs.L("peer", "a:1")).Value(); g != 1 {
		t.Errorf("service_peer_up = %v, want 1", g)
	}
}

// Alternating outcomes never accumulate a run, so a flapping peer stays
// at its last verdict instead of churning the ring epoch.
func TestProberFlappingPeerHoldsVerdict(t *testing.T) {
	h, _, _ := testPeers(t, "a:1")
	for i := 0; i < 20; i++ {
		h.observe("a:1", i%2 == 0)
	}
	if e := h.view.Epoch(); e != 1 {
		t.Errorf("alternating outcomes advanced the epoch to %d, want 1", e)
	}
	if !upOf(h, "a:1") {
		t.Error("flapping peer lost its up verdict")
	}
}

func TestProberCountsOutcomes(t *testing.T) {
	h, o, _ := testPeers(t, "a:1", "b:1")
	h.observe("a:1", true)
	h.observe("b:1", false)
	h.observe("b:1", false)
	m := o.Metrics()
	if v := m.Counter("service_probe", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("ok count = %v, want 1", v)
	}
	if v := m.Counter("service_probe", obs.L("result", "fail")).Value(); v != 2 {
		t.Errorf("fail count = %v, want 2", v)
	}
	// b flipped down, a untouched; verdicts are per-peer.
	if !upOf(h, "a:1") || upOf(h, "b:1") {
		t.Errorf("verdicts leaked across peers: a=%v b=%v", upOf(h, "a:1"), upOf(h, "b:1"))
	}
}

// The probe loops must start, fire probes on their jittered schedule,
// and stop cleanly even when every probe fails.
func TestProberStartStop(t *testing.T) {
	h, _, _ := testPeers(t, "a:1")
	h.interval = 1 // ~1ns: probe immediately
	probed := make(chan string, 64)
	h.probe = func(_ context.Context, peer string) error {
		select {
		case probed <- peer:
		default:
		}
		return errors.New("down")
	}
	h.start()
	<-probed // at least one probe fired
	h.stop() // must join without deadlock
}

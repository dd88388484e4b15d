package service

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
)

// Peer-health tuning. The probe fall threshold is deliberately low — a
// dead peer should leave the effective ring within roughly one probe
// interval — while the rise threshold demands two consecutive healthy
// answers so a flapping peer doesn't churn the ring epoch on every
// blip. The breaker costs a dead peer defaultBreakerThreshold fast
// connection failures before every subsequent request skips it without
// dialing, and re-admits a recovered peer within a couple of seconds.
const (
	defaultProbeInterval    = 2 * time.Second
	defaultProbeRise        = 2
	defaultProbeFall        = 2
	defaultBreakerThreshold = 3
	defaultBreakerBackoff   = 500 * time.Millisecond
	defaultBreakerMax       = 30 * time.Second
)

// breakerState is the classic three-state circuit-breaker machine; its
// value is what service_breaker_state{peer} reports.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy: requests flow
	breakerHalfOpen                     // backoff elapsed: one trial request is in flight
	breakerOpen                         // peer considered down: requests skip it instantly
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// peer is everything this node believes about one peer, under one
// mutex: the probe verdict and the circuit breaker guarding the proxy
// path, mirrored into the service_peer_up and service_breaker_state
// gauges.
type peer struct {
	mu sync.Mutex

	up   bool // probe verdict; peers start optimistically up
	last bool // outcome of the latest probe
	runs int  // consecutive probes with outcome last

	state   breakerState
	fails   int           // consecutive proxy failures while closed
	until   time.Time     // while open: earliest half-open trial
	backoff time.Duration // current open→half-open delay

	upGauge, stateGauge *obs.Gauge
}

// peerHealth holds one peer record per cluster peer and runs the active
// prober: one goroutine per peer issues GET /v1/healthz on a jittered
// interval (so a fleet's probes don't synchronize into bursts) and folds
// the outcomes into rise/fall verdicts. A verdict flip updates the
// membership view (ring epoch) and drives the breaker — down opens, up
// closes — so a peer's death stops proxy attempts within one probe
// interval even on a node that never dialed it.
//
// The breaker learns from the proxy path too. Closed, consecutive
// failures up to the threshold trip it open; while open, allow refuses
// instantly until the backoff elapses, then admits exactly one
// half-open trial. A trial success closes the breaker and resets the
// backoff; a trial failure re-opens it with the backoff doubled
// (capped, and jittered so a fleet's breakers don't retry a recovering
// peer in lockstep).
//
// Peers start up and closed: the breaker and the proxy fallback already
// make a dead peer cheap, and starting down would make a freshly booted
// fleet route everything locally until the first probe round.
type peerHealth struct {
	view     *cluster.View
	epoch    *obs.Gauge // service_cluster_epoch
	peers    map[string]*peer
	interval time.Duration
	probe    func(ctx context.Context, addr string) error
	now      func() time.Time // test hook; time.Now in production
	jitter   func() float64   // test hook; [0,1) multiplier source
	logger   *slog.Logger

	okCount, failCount *obs.Counter

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// newPeerHealth builds (but does not start) the health records for
// every view member other than self. interval 0 selects the default.
func newPeerHealth(view *cluster.View, self string, interval time.Duration, m *obs.Registry, logger *slog.Logger) *peerHealth {
	if interval <= 0 {
		interval = defaultProbeInterval
	}
	client := &http.Client{Timeout: max(interval/2, 250*time.Millisecond)}
	h := &peerHealth{
		view:      view,
		epoch:     m.Gauge("service_cluster_epoch"),
		peers:     map[string]*peer{},
		interval:  interval,
		probe:     func(ctx context.Context, addr string) error { return probeHealthz(ctx, client, addr) },
		now:       time.Now,
		jitter:    rand.Float64,
		logger:    logger,
		okCount:   m.Counter("service_probe", obs.L("result", "ok")),
		failCount: m.Counter("service_probe", obs.L("result", "fail")),
	}
	h.epoch.Set(float64(view.Epoch()))
	for _, addr := range view.Seed() {
		if addr == self {
			continue
		}
		p := &peer{
			up:         true,
			backoff:    defaultBreakerBackoff,
			upGauge:    m.Gauge("service_peer_up", obs.L("peer", addr)),
			stateGauge: m.Gauge("service_breaker_state", obs.L("peer", addr)),
		}
		p.upGauge.Set(1)
		p.stateGauge.Set(float64(breakerClosed))
		h.peers[addr] = p
	}
	return h
}

// probeHealthz is the default probe: GET /v1/healthz must answer 200.
func probeHealthz(ctx context.Context, client *http.Client, addr string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz status %s", http.StatusText(resp.StatusCode))
	}
	return nil
}

// start launches the probe loops; stop cancels and joins them. stop is
// nil-safe so a non-cluster server can call it unconditionally.
func (h *peerHealth) start() {
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	for addr := range h.peers {
		h.wg.Add(1)
		go h.loop(ctx, addr)
	}
}

func (h *peerHealth) stop() {
	if h != nil && h.cancel != nil {
		h.cancel()
		h.wg.Wait()
	}
}

// loop probes one peer until ctx ends. Each sleep is jittered within
// [0.75, 1.25] of the interval.
func (h *peerHealth) loop(ctx context.Context, addr string) {
	defer h.wg.Done()
	seed := fnv.New64a()
	seed.Write([]byte(addr))
	rng := rand.New(rand.NewSource(int64(seed.Sum64())))
	for {
		sleep := time.Duration((0.75 + 0.5*rng.Float64()) * float64(h.interval))
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		err := h.probe(ctx, addr)
		if ctx.Err() != nil {
			return
		}
		h.observe(addr, err == nil)
	}
}

// observe folds one probe outcome into the peer's rise/fall run and
// logs a verdict flip.
func (h *peerHealth) observe(addr string, ok bool) {
	if ok {
		h.okCount.Inc()
	} else {
		h.failCount.Inc()
	}
	if h.fold(addr, ok) && h.logger != nil {
		h.logger.Warn("peer liveness changed", "peer", addr, "up", ok,
			"epoch", h.view.Epoch(), "live", strings.Join(h.view.Live(), ","))
	}
}

// fold adds one probe outcome to the peer's run and reports whether the
// verdict flipped. A flip updates the gauge, the breaker and the
// membership view together, under the record's lock, so they never
// disagree about the peer.
func (h *peerHealth) fold(addr string, ok bool) bool {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.runs == 0 || p.last != ok {
		p.last, p.runs = ok, 1
	} else {
		p.runs++
	}
	need := defaultProbeFall
	if ok {
		need = defaultProbeRise
	}
	if ok == p.up || p.runs < need {
		return false
	}
	p.up = ok
	if ok {
		p.upGauge.Set(1)
		p.closeLocked()
	} else {
		p.upGauge.Set(0)
		// An already-open breaker keeps its deadline: proxy traffic
		// arriving before the rise verdict still half-open-probes on the
		// usual schedule.
		if p.state != breakerOpen {
			h.tripLocked(p)
		}
	}
	if h.view.SetAlive(addr, ok) {
		h.epoch.Set(float64(h.view.Epoch()))
	}
	return true
}

// allow reports whether a request may be sent to the peer right now.
// While open it flips to half-open once the backoff has elapsed and
// admits a single trial, whose outcome the caller reports through
// proxied.
func (h *peerHealth) allow(addr string) bool {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.state == breakerClosed:
		return true
	case p.state == breakerHalfOpen || h.now().Before(p.until):
		return false
	}
	p.state = breakerHalfOpen
	p.stateGauge.Set(float64(breakerHalfOpen))
	return true
}

// proxied records the outcome of a proxy attempt. Success means the
// peer answered at all (a 429 from a live peer is still a live peer)
// and closes the breaker; a failure (connect error, timeout, or 5xx)
// counts toward the threshold while closed, and re-opens a half-open
// breaker with doubled backoff.
func (h *peerHealth) proxied(addr string, ok bool) {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case ok:
		p.closeLocked()
	case p.state == breakerClosed:
		p.fails++
		if p.fails >= defaultBreakerThreshold {
			h.tripLocked(p)
		}
	case p.state == breakerHalfOpen:
		p.backoff = min(2*p.backoff, defaultBreakerMax)
		h.tripLocked(p)
	}
}

// open reports whether the peer's breaker is open (warm pushes skip
// such peers rather than burn their timeout).
func (h *peerHealth) open(addr string) bool {
	p := h.peers[addr]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state == breakerOpen
}

// report renders the healthz "peers" map: verdict and breaker state.
func (h *peerHealth) report() map[string]any {
	out := map[string]any{}
	for addr, p := range h.peers {
		p.mu.Lock()
		out[addr] = map[string]any{"up": p.up, "breaker": p.state.String()}
		p.mu.Unlock()
	}
	return out
}

// tripLocked opens p's breaker for its current backoff plus up to 25%
// jitter. Caller holds p.mu.
func (h *peerHealth) tripLocked(p *peer) {
	p.state, p.fails = breakerOpen, 0
	p.until = h.now().Add(p.backoff + time.Duration(h.jitter()*0.25*float64(p.backoff)))
	p.stateGauge.Set(float64(breakerOpen))
}

// closeLocked closes p's breaker and resets its backoff. Caller holds
// p.mu.
func (p *peer) closeLocked() {
	p.state, p.fails, p.backoff = breakerClosed, 0, defaultBreakerBackoff
	p.stateGauge.Set(float64(breakerClosed))
}

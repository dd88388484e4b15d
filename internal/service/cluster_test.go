package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// clusterNode is one in-process prescalerd node bound to a real TCP
// port (the ring needs concrete addresses before New runs, so these
// tests reserve listeners first).
type clusterNode struct {
	addr string
	srv  *Server
	hs   *http.Server
	obs  *obs.Observer
}

func (n *clusterNode) url() string { return "http://" + n.addr }

func startCluster(t *testing.T, size int) []*clusterNode {
	t.Helper()
	return startClusterCfg(t, size, nil)
}

// startClusterCfg starts a cluster with a per-node Config hook (applied
// after the defaults, before New), for tests that need replication or
// persistence.
func startClusterCfg(t *testing.T, size int, configure func(i int, cfg *Config)) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, size)
	addrs := make([]string, size)
	listeners := make([]net.Listener, size)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for i := range nodes {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		o := obs.New()
		cfg := Config{
			Workers:  2,
			Obs:      o,
			Workload: testWorkloads,
			Self:     addrs[i],
			Peers:    peers,
			// Membership stays static: these tests exercise the breaker
			// and proxy fallback paths, which must work during the window
			// before any probe verdict lands, so no probe fires.
			ProbeInterval: time.Hour,
		}
		if configure != nil {
			configure(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(listeners[i])
		nodes[i] = &clusterNode{addr: addrs[i], srv: srv, hs: hs, obs: o}
		t.Cleanup(func() { hs.Close(); srv.Close() })
	}
	return nodes
}

// fingerprintFor asks a node for the decision id of a request body
// without searching.
func fingerprintFor(t *testing.T, node *clusterNode, body string) string {
	t.Helper()
	resp, err := http.Post(node.url()+"/v1/scale?fingerprint=1", "application/json",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		DecisionID string `json:"decision_id"`
	}
	if err := json.Unmarshal(b, &out); err != nil || out.DecisionID == "" {
		t.Fatalf("fingerprint response: %s", b)
	}
	return out.DecisionID
}

// A two-node ring must agree on ownership, proxy /v1/scale by it, and
// answer with byte-identical bodies whichever node is hit.
func TestClusterProxiesByOwnership(t *testing.T) {
	nodes := startCluster(t, 2)
	reqBody := `{"benchmark":"veccombine","toq":0.9}`
	id := fingerprintFor(t, nodes[0], reqBody)

	if a, b := nodes[0].srv.view.Ring().Owner(id), nodes[1].srv.view.Ring().Owner(id); a != b {
		t.Fatalf("nodes disagree on owner: %q vs %q", a, b)
	}
	owner, other := nodes[0], nodes[1]
	if nodes[0].srv.view.Ring().Owner(id) != nodes[0].addr {
		owner, other = nodes[1], nodes[0]
	}

	// Hitting the owner computes locally.
	resp, err := http.Post(owner.url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	ownerBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("owner: status %d, X-Cache %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}

	// Hitting the non-owner proxies to the owner: X-Cache remote, the
	// owner's own state rides in X-Cache-Origin, the body is identical.
	resp, err = http.Post(other.url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	remoteBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("non-owner: status %d: %s", resp.StatusCode, remoteBody)
	}
	if c := resp.Header.Get("X-Cache"); c != "remote" {
		t.Errorf("non-owner X-Cache = %q, want remote", c)
	}
	if oc := resp.Header.Get("X-Cache-Origin"); oc != "hit" {
		t.Errorf("X-Cache-Origin = %q, want hit (owner had it cached)", oc)
	}
	if did := resp.Header.Get("X-Decision-Id"); did != id {
		t.Errorf("X-Decision-Id = %q, want %q", did, id)
	}
	if !bytes.Equal(ownerBody, remoteBody) {
		t.Error("proxied body differs from the owner's — determinism invariant broken")
	}
	if v := other.obs.Metrics().Counter("service_proxy", obs.L("result", "ok")).Value(); v != 1 {
		t.Errorf("proxy ok counter = %v, want 1", v)
	}
	// Sharding, not replication: the non-owner must not have stored the
	// proxied body in its own LRU.
	if _, ok := other.srv.cached(id); ok {
		t.Error("non-owner cached a proxied decision; the shard should live on the owner only")
	}

	// A request already forwarded once is answered locally, never
	// re-proxied (loop prevention).
	req, err := http.NewRequest("POST", other.url()+"/v1/scale", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(headerForwarded, "test")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fwdBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("forwarded request X-Cache = %q, want miss (local compute)", c)
	}
	if !bytes.Equal(fwdBody, ownerBody) {
		t.Error("locally computed body differs from the owner's")
	}
}

// When the owner is dead, the non-owner must fall back to local compute
// and still answer 200 with the correct body.
func TestClusterFallbackOnPeerDeath(t *testing.T) {
	nodes := startCluster(t, 2)
	// Find a request owned by node 1, then kill node 1.
	var reqBody string
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"benchmark":"veccombine","toq":0.5%02d}`, i)
		id := fingerprintFor(t, nodes[0], body)
		if nodes[0].srv.view.Ring().Owner(id) == nodes[1].addr {
			reqBody = body
			break
		}
	}
	if reqBody == "" {
		t.Fatal("no fingerprint owned by node 1 in 40 tries")
	}
	nodes[1].hs.Close()

	resp, err := http.Post(nodes[0].url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fallback: status %d: %s", resp.StatusCode, body)
	}
	if c := resp.Header.Get("X-Cache"); c != "miss" {
		t.Errorf("fallback X-Cache = %q, want miss (computed locally)", c)
	}
	if v := nodes[0].obs.Metrics().Counter("service_proxy", obs.L("result", "fallback")).Value(); v != 1 {
		t.Errorf("proxy fallback counter = %v, want 1", v)
	}
	// The decision landed in the survivor's cache: a repeat is a local
	// hit without another proxy attempt.
	resp, err = http.Post(nodes[0].url()+"/v1/scale", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c := resp.Header.Get("X-Cache"); c != "hit" {
		t.Errorf("repeat after fallback X-Cache = %q, want hit", c)
	}
	if !bytes.Equal(body, body2) {
		t.Error("fallback repeat body differs")
	}
}

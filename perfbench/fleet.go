package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/prog"
	"repro/internal/service"
)

// fleetSize and replication mirror a small prescalerd deployment:
// replication 2 is prescalerd's default, and with three nodes every
// fingerprint has two owners and one node that must proxy.
const (
	fleetSize   = 3
	replication = 2
)

// node is one in-process prescalerd: a service.Server behind an
// http.Server on a loopback listener.
type node struct {
	addr string
	srv  *service.Server
	hs   *http.Server
	done chan struct{}
}

// fleet is a running set of nodes plus the ring they all build, which
// the benchmark uses to tell owners from non-owners.
type fleet struct {
	nodes []*node
	ring  *cluster.Ring
}

// basePorts are where the fleet listens: ports base, base+1 and base+2
// on loopback, for the first base whose ports are all free. The ring
// places fingerprints by node address, and so decides which node
// searches which hot item and which searches share a node's eval
// cache. With ephemeral ports a serve-fleet warm-up pass took 0.36 to
// 0.88 s from one fleet to the next; at fixed ports every fleet places
// alike. Ephemeral ports are the last resort.
var basePorts = []int{47310, 47410, 47510, 47610, 0}

// listenFleet opens the fleet's listeners.
func listenFleet() ([]net.Listener, error) {
	var err error
	for _, base := range basePorts {
		lns := make([]net.Listener, fleetSize)
		for i := range lns {
			port := 0
			if base != 0 {
				port = base + i
			}
			if lns[i], err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port)); err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				break
			}
		}
		if err == nil {
			return lns, nil
		}
	}
	return nil, fmt.Errorf("listen: %w", err)
}

// startFleet brings up the fleet and returns once every node has
// answered a fingerprint-only request for probe, which also runs each
// node's lazy one-time inspection of the target system.
func startFleet(lookup func(string) *prog.Workload, probe []byte) (*fleet, error) {
	lns, err := listenFleet()
	if err != nil {
		return nil, err
	}
	addrs := make([]string, fleetSize)
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	f := &fleet{}
	ring, err := cluster.New(addrs, 0)
	if err != nil {
		for _, l := range lns {
			l.Close()
		}
		return nil, err
	}
	f.ring = ring
	for i, ln := range lns {
		srv, err := service.New(service.Config{
			Self: addrs[i], Peers: addrs, Replication: replication, Workload: lookup,
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			f.close()
			return nil, err
		}
		n := &node{addr: addrs[i], srv: srv, hs: &http.Server{Handler: srv.Handler()}, done: make(chan struct{})}
		go func() {
			defer close(n.done)
			n.hs.Serve(ln)
		}()
		f.nodes = append(f.nodes, n)
	}
	c := newClient()
	defer c.close()
	for _, n := range f.nodes {
		if _, _, err := c.fingerprint(n, probe); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// close shuts every node down and waits for its server goroutine. The
// fleet is discarded, so its connections are closed, not drained: a
// graceful shutdown waited up to 1.6 s on connections a peer had just
// opened, and a run takes fifteen fleets down.
func (f *fleet) close() {
	for _, n := range f.nodes {
		n.hs.Close()
		<-n.done
		n.srv.Close()
	}
}

// owners returns the node indices owning id (primary first) and the
// index of the one node that does not own it.
func (f *fleet) owners(id string) (own [replication]int, other int) {
	idx := map[string]int{}
	for i, n := range f.nodes {
		idx[n.addr] = i
	}
	other = -1
	isOwner := make([]bool, len(f.nodes))
	for i, a := range f.ring.OwnerN(id, replication) {
		own[i] = idx[a]
		isOwner[idx[a]] = true
	}
	for i, o := range isOwner {
		if !o {
			other = i
		}
	}
	return own, other
}

// client is one HTTP client with its own keep-alive connections.
type client struct{ hc *http.Client }

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   150 * time.Second,
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a fully read response.
type reply struct {
	status    int
	id, cache string
	body      []byte
}

func (c *client) do(method, url string, body []byte) (*reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{
		status: resp.StatusCode,
		id:     resp.Header.Get("X-Decision-Id"),
		cache:  resp.Header.Get("X-Cache"),
		body:   b,
	}, nil
}

func (c *client) scale(n *node, req []byte) (*reply, error) {
	return c.do(http.MethodPost, "http://"+n.addr+"/v1/scale", req)
}

// fingerprint asks n for the decision id of req and whether n holds it.
func (c *client) fingerprint(n *node, req []byte) (id string, cached bool, err error) {
	r, err := c.do(http.MethodPost, "http://"+n.addr+"/v1/scale?fingerprint=1", req)
	if err != nil {
		return "", false, err
	}
	var fp struct {
		ID     string `json:"decision_id"`
		Cached bool   `json:"cached"`
	}
	if r.status != http.StatusOK {
		return "", false, fmt.Errorf("fingerprint: status %d: %s", r.status, r.body)
	}
	if err := json.Unmarshal(r.body, &fp); err != nil {
		return "", false, fmt.Errorf("fingerprint: %w", err)
	}
	return fp.ID, fp.Cached, nil
}

// warm stores body under id on n through the replica warm-push route.
func (c *client) warm(n *node, id string, body []byte) error {
	r, err := c.do(http.MethodPost, "http://"+n.addr+"/v1/decisions/"+id+"/warm", body)
	if err != nil {
		return err
	}
	if r.status != http.StatusNoContent {
		return fmt.Errorf("warm %s: status %d: %s", id, r.status, r.body)
	}
	return nil
}

func (c *client) decision(n *node, id string) (*reply, error) {
	return c.do(http.MethodGet, "http://"+n.addr+"/v1/decisions/"+id, nil)
}

// scrape reads n's /metrics as a map from "name{labels}" to value.
func (c *client) scrape(n *node) (map[string]float64, error) {
	r, err := c.do(http.MethodGet, "http://"+n.addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// scaleRequest renders the wire request for one decision.
func scaleRequest(bench string, toq float64) []byte {
	b, _ := json.Marshal(api.ScaleRequest{Schema: api.Schema, Benchmark: bench, TOQ: toq})
	return b
}

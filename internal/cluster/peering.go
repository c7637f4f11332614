package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"gpuwalk/internal/capread"
	"gpuwalk/internal/obs"
)

// Peering is the client half of cache peering: a backend node's
// read-through to whichever peer owns a key on the ring. It satisfies
// simcache's Peer interface structurally, so a local cache miss asks
// the owning node for the payload before the process pays for a
// simulation.
//
// Loop freedom: Fetch never asks the node itself (owner == self short
// circuits), and the serving endpoint answers from its local store
// only (simcache.GetLocal), so a fetch can never cascade into another
// fetch.
type Peering struct {
	m    *Membership
	self string // this node's normalized base URL
	hc   *http.Client
	log  *slog.Logger

	attempts atomic.Uint64
	hits     atomic.Uint64
	errors   atomic.Uint64
}

// NewPeering builds a peering client for the node at selfURL (which
// should appear in the membership's peer list; a typo'd self would
// make the node fetch from itself over HTTP — the normalized
// comparison below is what prevents that, so selfURL is normalized
// with the same rules as the peer list). timeout bounds one fetch; a
// peer fetch is an optimization, so it must cost bounded time before
// the node falls back to simulating. Zero means 5s.
func NewPeering(m *Membership, selfURL string, timeout time.Duration, logger *slog.Logger) (*Peering, error) {
	self, err := NormalizeURL(selfURL)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	return &Peering{
		m:    m,
		self: self,
		hc:   &http.Client{Timeout: timeout},
		log:  logger,
	}, nil
}

// Self returns the node's own normalized URL.
func (p *Peering) Self() string { return p.self }

// Fetch asks the ring owner of key for its cached payload. ok is false
// when this node owns the key itself, no healthy owner exists, the
// owner misses, or the fetch fails — every one of those means "go
// simulate", so errors are counted and logged but never surfaced.
func (p *Peering) Fetch(key string) ([]byte, bool) {
	owner := p.m.Owner(key)
	if owner == "" || owner == p.self {
		return nil, false
	}
	p.attempts.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), p.hc.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		owner+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		p.errors.Add(1)
		return nil, false
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.errors.Add(1)
		p.log.Debug("peer fetch failed", "peer", NodeName(owner), "error", err.Error())
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false // peer miss: simulate locally
	}
	b, err := capread.ReadAll(resp.Body, 256<<20)
	if err != nil {
		p.errors.Add(1)
		p.log.Debug("peer fetch body failed", "peer", NodeName(owner), "error", err.Error())
		return nil, false
	}
	p.hits.Add(1)
	p.log.Debug("peer fetch hit", "peer", NodeName(owner), "key", shortKey(key), "bytes", len(b))
	return b, true
}

// RegisterMetrics exposes the peering counters on a node's family set.
// The simcache-side peer-hit counter counts payloads actually adopted
// after digest-checked Put; these count the wire attempts, so the gap
// between them is visible when a peer serves garbage.
func (p *Peering) RegisterMetrics(fs *obs.FamilySet) {
	fs.CounterFunc("gpuwalkd_peer_fetch_attempts_total",
		"Cache read-through fetches attempted against the ring owner.",
		func() float64 { return float64(p.attempts.Load()) })
	fs.CounterFunc("gpuwalkd_peer_fetch_hits_total",
		"Peer fetches that returned a payload.",
		func() float64 { return float64(p.hits.Load()) })
	fs.CounterFunc("gpuwalkd_peer_fetch_errors_total",
		"Peer fetches that failed at the transport or mid-body.",
		func() float64 { return float64(p.errors.Load()) })
}

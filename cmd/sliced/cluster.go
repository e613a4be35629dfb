package main

// The daemon's cluster plane: consistent-hash routing over the
// program's content address, transparent proxying to the ring owner,
// peer fill of stored replies on local miss, and the disk store that
// makes restarts warm.
//
// The flow for one clustered /slice request:
//
//  1. The ring (built over the full static -peers list) names the
//     owner of the program's content address. A request landing on
//     the wrong node is proxied to the owner — unless it already
//     carries X-Sliced-Routed-From (one hop max) or the owner is
//     down, in which case the local node serves it degraded.
//  2. The serving node looks up the reply's record (memory, then
//     disk). A hit answers without touching the pipeline (X-Cache:
//     result or disk).
//  3. On a miss, cluster mode asks ring-adjacent peers for the record
//     (X-Cache: peer-fill). A fill that fails — peers down, record
//     absent, record corrupt — falls back to local compute; it can
//     degrade latency, never a response.
//  4. A locally computed non-explain reply is stored as a record and
//     written through to disk, making it available to peers and to
//     the next restart.
//
// Routing is over the analysis key (the whole program source), not
// the record key (source + criterion + algorithm): all criteria of
// one program land on one node, so its *core.Analysis is built once
// fleet-wide and stays hot there.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"jumpslice/internal/cluster"
	"jumpslice/internal/obs"
	"jumpslice/internal/slicecache"
	"jumpslice/internal/slicecache/disk"
)

// routedFromHeader marks a proxied request with the node that
// forwarded it. Its presence is the loop guard: a request that
// already hopped is served where it lands, no matter what the ring
// says.
const routedFromHeader = "X-Sliced-Routed-From"

// clusterState is the daemon's routing fabric; nil when -peers is
// unset.
type clusterState struct {
	self       string
	ring       *cluster.Ring
	peers      *cluster.Peers
	filler     *cluster.Filler
	candidates int
	client     *http.Client // proxy transport

	localServes *obs.Counter
	proxied     *obs.Counter
	proxyErrors *obs.Counter
	fillServes  *obs.Counter
}

// openCluster brings up the persistence and routing tiers from the
// config: the disk store and the cache over it (when -disk-dir is
// set), and the ring, peer prober, and fill client (when -peers is
// set). It must run before the first request, like openSpool; serveOn
// does, and cluster tests call it directly.
func (s *server) openCluster() error {
	if s.cfg.CacheOff && (s.cfg.DiskDir != "" || len(s.cfg.PeerList) > 0) {
		return errors.New("-cache-off cannot be combined with -disk-dir or -peers: both share stored replies")
	}
	if s.cfg.DiskDir != "" {
		st, err := disk.Open(disk.Options{
			Dir:          s.cfg.DiskDir,
			MaxBytes:     s.cfg.DiskBytes,
			SegmentBytes: s.cfg.DiskSegment,
			Recorder:     s.reg,
		})
		if err != nil {
			return err
		}
		s.disk = st
		s.cache = s.newCache(st)
		s.logger.Printf("disk result tier on %s (budget %d bytes)", s.cfg.DiskDir, st.Stats().MaxBytes)
	}
	if len(s.cfg.PeerList) == 0 {
		return nil
	}
	// The ring spans the full configured list plus self: ownership is a
	// function of configuration, never of health — a probe flap must
	// not reshuffle keys.
	nodes := append(append([]string{}, s.cfg.PeerList...), s.cfg.Self)
	peers := cluster.NewPeers(s.cfg.Self, s.cfg.PeerList, cluster.ProbeOptions{
		Interval: s.cfg.ProbeInterval,
		Timeout:  s.cfg.ProbeTimeout,
		Recorder: s.reg,
	})
	c := &clusterState{
		self:       s.cfg.Self,
		ring:       cluster.NewRing(nodes, s.cfg.Vnodes),
		peers:      peers,
		candidates: s.cfg.FillCandidates,
		client:     &http.Client{Timeout: s.cfg.Timeout + 5*time.Second},

		localServes: s.reg.Counter("cluster.local_serves"),
		proxied:     s.reg.Counter("cluster.proxied"),
		proxyErrors: s.reg.Counter("cluster.proxy_errors"),
		fillServes:  s.reg.Counter("cluster.fill_serves"),
	}
	c.filler = cluster.NewFiller(cluster.FillOptions{
		Timeout:  s.cfg.FillTimeout,
		MaxBytes: s.cfg.MaxBody * 16,
		Validate: func(body []byte) error {
			_, err := checkRecord(body)
			return err
		},
		Peers:    peers,
		Recorder: s.reg,
	})
	peers.Start()
	s.cluster = c
	s.logger.Printf("cluster mode: self=%s peers=%d vnodes=%d", c.self, len(s.cfg.PeerList), s.cfg.Vnodes)
	return nil
}

// newCache builds the daemon's one cache, its records written through
// to st when st is non-nil.
func (s *server) newCache(st *disk.Store) *slicecache.Cache {
	return slicecache.New(slicecache.Options{
		MaxBytes: s.cfg.CacheBytes,
		Recorder: s.reg,
		Disk:     st,
	})
}

// closeCluster stops the prober and seals the disk tier.
func (s *server) closeCluster() {
	if s.cluster != nil {
		s.cluster.peers.Close()
	}
	if s.disk != nil {
		s.disk.Close()
	}
}

// checkRecord is the canonical check on reply bytes from outside the
// process (a disk read, a peer fill). Framed as a reply, they must
// decode as a slice response that carries an algorithm and lines, and
// sliceBody must render that response back to exactly these bytes; so
// only what this daemon could have stored is ever served. It returns
// the record the bytes encode. A record failing here costs a
// recompute, never a bad answer.
func checkRecord(body []byte) (*slicecache.Record, error) {
	framed := make([]byte, 0, len(replyHead)+len(body)+len(replyTail)+2)
	framed = append(framed, replyHead+"0"...)
	framed = append(framed, body...)
	framed = append(framed, "0"+replyTail...)
	var resp sliceResponse
	if err := json.Unmarshal(framed, &resp); err != nil {
		return nil, err
	}
	if resp.Algorithm == "" || len(resp.Lines) == 0 {
		return nil, errors.New("record missing algorithm or lines")
	}
	if !bytes.Equal(sliceBody(&resp), body) {
		return nil, errors.New("record is not the canonical rendering of its reply")
	}
	return &slicecache.Record{Body: body, SliceLines: len(resp.Lines)}, nil
}

// routeSlice decides placement for a parsed /slice request, whose
// program is keyed k, and, when the owner is another live node,
// proxies to it. It reports whether the response was written; false
// means "serve locally" (we own the key, the owner is down, or the
// request already hopped).
func (s *server) routeSlice(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest, k slicecache.Key) bool {
	c := s.cluster
	if c == nil {
		return false
	}
	owner := c.ring.Owner(k[:])
	if owner == c.self || r.Header.Get(routedFromHeader) != "" || !c.peers.Up(owner) {
		c.localServes.Add(1)
		return false
	}
	if s.proxySlice(ctx, w, r, req, owner) {
		return true
	}
	// The hop failed mid-flight: the owner was just marked down; serve
	// degraded rather than erroring.
	c.localServes.Add(1)
	return false
}

// proxySlice forwards the request to owner, streaming the response
// back. The forwarded request carries the parsed body re-encoded as
// JSON (the original body is already consumed), the routed-from hop
// marker, and the conditional/failpoint headers. It reports whether a
// response was relayed; a transport failure marks the owner down and
// returns false so the caller serves locally.
func (s *server) proxySlice(ctx context.Context, w http.ResponseWriter, r *http.Request, req *sliceRequest, owner string) bool {
	c := s.cluster
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	u := "http://" + owner + "/slice"
	if q := r.URL.RawQuery; q != "" {
		u += "?" + q
	}
	preq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(routedFromHeader, c.self)
	for _, h := range []string{"If-None-Match", "X-Sliced-Fail"} {
		if v := r.Header.Get(h); v != "" {
			preq.Header.Set(h, v)
		}
	}
	resp, err := c.client.Do(preq)
	if err != nil {
		c.proxyErrors.Add(1)
		c.peers.MarkDown(owner)
		return false
	}
	defer resp.Body.Close()
	c.proxied.Add(1)
	return s.relayProxy(w, resp, owner)
}

// relayProxy copies the owner's response onto our writer with the
// proxied-route headers. The owner's verdicts ride through: X-Cache
// says which tier it hit, X-Sliced-Node names the node that actually
// served (never two hops away — the routed-from marker forbids a
// second proxy).
func (s *server) relayProxy(w http.ResponseWriter, resp *http.Response, owner string) bool {
	h := w.Header()
	for _, name := range []string{"Content-Type", "X-Cache", "X-Sliced-Node", "Retry-After", "ETag"} {
		if v := resp.Header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	h.Set("X-Sliced-Route", "proxied")
	h.Set("X-Sliced-Peer", owner)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// serveRecord answers a /slice request from its stored reply, keyed
// rk — memory, disk, then peer fill — reporting whether a response
// was written. A false return means every source missed and the
// caller must compute.
func (s *server) serveRecord(ctx context.Context, w http.ResponseWriter, r *http.Request, k slicecache.Key, rk slicecache.ResultKey, id uint64, start time.Time) bool {
	if s.cache == nil {
		return false
	}
	rec, src := s.cache.GetRecord(rk, checkRecord)
	tier := src.String()
	if src == slicecache.RecordMiss {
		if rec = s.fillRecord(ctx, w, r, k, rk); rec == nil {
			return false
		}
		tier = "peer-fill"
	}
	w.Header().Set("X-Cache", tier)
	ri := reqInfoFrom(r)
	ri.setStmts(rec.Stmts)
	ri.setSliceLines(rec.SliceLines)
	writeSliceBody(w, rec.Body, id, start)
	return true
}

// fillRecord asks the ring-adjacent nodes of the program keyed k (its
// previous and next owners) that are currently up for the record
// under rk, and stores what one serves. It returns nil when no peer
// could serve it; fills are best-effort.
func (s *server) fillRecord(ctx context.Context, w http.ResponseWriter, r *http.Request, k slicecache.Key, rk slicecache.ResultKey) *slicecache.Record {
	c := s.cluster
	if c == nil {
		return nil
	}
	var candidates []string
	for _, cand := range c.ring.Candidates(k[:], c.candidates+1, c.self) {
		if len(candidates) < c.candidates && c.peers.Up(cand) {
			candidates = append(candidates, cand)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	var hdr http.Header
	if s.cfg.Failpoints {
		if v := r.Header.Get("X-Sliced-Fail"); v != "" {
			hdr = http.Header{"X-Sliced-Fail": []string{v}}
		}
	}
	res, err := c.filler.Fill(ctx, rk.Hex(), candidates, hdr)
	if err != nil {
		return nil
	}
	// The filler's Validate ran this same check on these bytes.
	rec, err := checkRecord(res.Data)
	if err != nil {
		return nil
	}
	c.fillServes.Add(1)
	s.cache.PutRecord(rk, rec)
	w.Header().Set("X-Sliced-Route", "peer-fill")
	w.Header().Set("X-Sliced-Peer", res.Peer)
	return rec
}

// handleFill (GET /internal/fill?key=) serves one stored reply
// record to a peer, from cache state only (memory, then disk): it
// never computes, never proxies, and never fills in turn, which is
// what makes a fill structurally one hop. The key parameter is
// validated strictly.
func (s *server) handleFill(w http.ResponseWriter, r *http.Request) {
	if s.cache == nil {
		s.fail(w, r, http.StatusNotFound, "not_found", "cache disabled (-cache-off)")
		return
	}
	v := r.URL.Query().Get("key")
	raw, err := hex.DecodeString(v)
	if err != nil || len(raw) != len(slicecache.ResultKey{}) {
		s.fail(w, r, http.StatusUnprocessableEntity, "invalid_parameter",
			"parameter key must be %d hex characters, got %q", 2*len(slicecache.ResultKey{}), v)
		return
	}
	var key slicecache.ResultKey
	copy(key[:], raw)
	rec, src := s.cache.GetRecord(key, checkRecord)
	if src == slicecache.RecordMiss {
		s.fail(w, r, http.StatusNotFound, "not_found", "no record for key %s", v)
		return
	}
	data := rec.Body
	// The fill-corrupt failpoint serves a torn record so the e2e tests
	// can prove the requesting side survives corruption.
	if s.cfg.Failpoints && r.Header.Get("X-Sliced-Fail") == "fill-corrupt" {
		data = data[:len(data)/2]
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", src.String())
	w.Write(data)
}

// handleClusterDebug (GET /debug/cluster) reports the routing
// fabric's live state: self, ring membership, per-peer health, and
// the ledgers of the cache (analyses and records) and the disk store.
// It reports {"enabled":false} when neither clustering nor the disk
// tier is on.
func (s *server) handleClusterDebug(w http.ResponseWriter, r *http.Request) {
	type tierStats struct {
		Cache *slicecache.Stats `json:"cache,omitempty"`
		Disk  *disk.Stats       `json:"disk,omitempty"`
	}
	out := struct {
		Enabled bool                `json:"enabled"`
		Self    string              `json:"self,omitempty"`
		Vnodes  int                 `json:"vnodes,omitempty"`
		Nodes   []string            `json:"nodes,omitempty"`
		Peers   []cluster.PeerState `json:"peers,omitempty"`
		Tiers   tierStats           `json:"tiers"`
	}{}
	if s.disk != nil {
		st := s.disk.Stats()
		out.Tiers.Disk = &st
		out.Enabled = true
	}
	if c := s.cluster; c != nil {
		out.Enabled = true
		out.Self = c.self
		out.Vnodes = c.ring.Vnodes()
		out.Nodes = c.ring.Nodes()
		out.Peers = c.peers.States()
	}
	if out.Enabled {
		st := s.cache.Stats()
		out.Tiers.Cache = &st
	}
	writeJSON(w, http.StatusOK, out)
}

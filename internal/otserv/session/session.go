// Package session is the state layer of the OT dispenser: it owns
// every per-session fact — the fleet-wide routing token, the dealer
// and its Δ-scoped prefetching pool, the lease that keeps a
// disconnected client's pool position alive, the per-half capability
// tokens and draw roles, the tenant, and the refcount — and none of
// the wire framing or connection handling. Transports (the otserv
// server, the fleet router's shards) attach and detach freely; the
// state they share lives here, shard-local, and every externally
// visible view of it (wire.SessionStats / wire.StatsDump) is a plain
// serializable value.
//
// Lifecycle: Open mints a session (refcount 1). Attach presents a
// capability token and bumps the refcount. Detach drops one reference;
// an explicit protocol CLOSE tears the session down at refcount zero,
// while a connection loss instead *orphans* it — the lease clock
// starts, and a client that re-Attaches with the session token inside
// the window resumes its draws byte-identically at the same pool
// position. The registry's janitor expires orphans whose lease ran
// out, leaving a tombstone so a late reconnect gets the typed
// wire.ErrLeaseExpired instead of a generic miss.
//
// Backpressure is two-layered and typed, never a deadlock: per-tenant
// token-bucket draw quotas admit or shed requests up front
// (wire.ErrQuotaExceeded), and admitted draws that outrun correlation
// generation shed on the pool's bounded wait (wire.ErrPoolDry).
package session

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"time"

	"ironman/internal/aesprg"
	"ironman/internal/block"
	"ironman/internal/cot"
	"ironman/internal/ferret"
	"ironman/internal/obs"
	"ironman/internal/otserv/wire"
	"ironman/internal/pool"
)

// Config tunes the session registry. The zero value is usable: "2^20"
// default set, depth-2 prefetch, 64 sessions, 15 s leases.
type Config struct {
	// DefaultParams is used when an open names no set: a Table 4 name
	// or one of the CI-scale sets "tiny"/"small" (see resolveParams).
	// Default "2^20".
	DefaultParams string
	// Depth is the per-session prefetch depth (batches) when a session
	// requests none. Default 2.
	Depth int
	// MaxDepth caps client-requested prefetch depths. Default 8.
	MaxDepth int
	// MaxSessions bounds concurrently open sessions on this shard.
	// Default 64.
	MaxSessions int
	// ShardID scopes this registry's session ids: ids are
	// wire.SessionID(ShardID, seq), so a fleet router can route a draw
	// from the id alone. 0 is the standalone dispenser.
	ShardID uint64
	// Lease is how long an orphaned session (refcount zero by
	// connection loss, not CLOSE) keeps its pool position before the
	// janitor expires it. Default 15 s.
	Lease time.Duration
	// MaxLease clamps client-requested leases. Default 2 m.
	MaxLease time.Duration
	// DrawWait bounds how long one draw may block on correlation
	// generation before shedding with wire.ErrPoolDry. Default 30 s;
	// negative disables the bound.
	DrawWait time.Duration
	// DrawWaiters bounds how many draws may be blocked on one session's
	// generation at once; excess sheds with wire.ErrPoolDry. Default
	// 256; negative disables the bound.
	DrawWaiters int
	// Sweep is the janitor's lease-expiry scan interval. Default 500 ms.
	Sweep time.Duration
	// Quota shapes the per-tenant admission control; the zero value is
	// unlimited.
	Quota QuotaConfig
	// Registry receives the metrics: session lifecycle counters plus
	// one ironman_pool_* instrument set per session half. nil makes the
	// registry create its own.
	Registry *obs.Registry

	// now overrides the clock in tests (in-package only).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.DefaultParams == "" {
		c.DefaultParams = "2^20"
	}
	if c.Depth <= 0 {
		c.Depth = 2
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.Lease <= 0 {
		c.Lease = 15 * time.Second
	}
	if c.MaxLease <= 0 {
		c.MaxLease = 2 * time.Minute
	}
	switch {
	case c.DrawWait == 0:
		c.DrawWait = 30 * time.Second
	case c.DrawWait < 0:
		c.DrawWait = 0
	}
	switch {
	case c.DrawWaiters == 0:
		c.DrawWaiters = 256
	case c.DrawWaiters < 0:
		c.DrawWaiters = 0
	}
	if c.Sweep <= 0 {
		c.Sweep = 500 * time.Millisecond
	}
	if c.ShardID > wire.MaxShardID {
		c.ShardID = wire.MaxShardID
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// resolveParams maps a params name to its set: the paper's Table 4
// names, plus two CI-scale sets cheap enough to open hundreds of
// sessions on a laptop. A session only takes its batch size (the
// set's Usable yield) from the set.
func resolveParams(name string) (ferret.Params, error) {
	switch name {
	case "tiny":
		return ferret.TestParams(600, 32, 128, 8), nil
	case "small":
		return ferret.TestParams(3000, 32, 512, 16), nil
	}
	return ferret.ParamsByName(name)
}

// OpenRequest shapes one session open (a transport's parsed HELLO).
type OpenRequest struct {
	Params   string
	Depth    int
	LowWater int
	// Tenant names the accounting principal; "" is the anonymous
	// default tenant.
	Tenant string
	// Lease requests the orphan grace window (0 = registry default;
	// clamped to Config.MaxLease).
	Lease time.Duration
	// Token pins the fleet-wide routing token (the router injects the
	// consistent-hash key here); "" mints a fresh one.
	Token string
}

// Session is one dealt correlation stream and every fact about it that
// must survive a transport detach: identity, capabilities, lease,
// tenant, and the Δ-scoped prefetching pool. All mutable fields are
// guarded by the owning Registry's mutex.
type Session struct {
	id         uint64
	token      string // fleet routing token (routes, does not authorize)
	paramsName string
	tenant     string
	batch      int
	lease      time.Duration
	delta      block.Block
	tokenS     string // attach capability for the sender half
	tokenR     string // attach capability for the receiver half
	pool       *pool.Dealt
	bucket     *bucket // tenant quota admission
	reg        *Registry
	// obsS/obsR mirror the pool halves into the metrics registry; the
	// STATS protocol serves from these (pool.Stats agrees by the
	// Observer contract). labels is the shared per-session label set,
	// the teardown Drop predicate's match key.
	obsS, obsR *pool.Observer
	labels     string

	// Guarded by reg.mu.
	refs      int
	expiresAt time.Time // nonzero while orphaned (refs == 0 via detach)
}

// ID is the shard-scoped numeric session id.
func (s *Session) ID() uint64 { return s.id }

// Token is the fleet-wide routing token (consistent-hash key and
// reconnect handle; not a capability).
func (s *Session) Token() string { return s.token }

// Params names the session's parameter set.
func (s *Session) Params() string { return s.paramsName }

// Tenant names the session's accounting principal.
func (s *Session) Tenant() string { return s.tenant }

// Batch is the correlations dealt per refill.
func (s *Session) Batch() int { return s.batch }

// Lease is the session's orphan grace window.
func (s *Session) Lease() time.Duration { return s.lease }

// Delta is the session's correlation Δ (the creator's secret).
func (s *Session) Delta() block.Block { return s.delta }

// SenderToken is the attach capability for the sender half.
func (s *Session) SenderToken() string { return s.tokenS }

// ReceiverToken is the attach capability for the receiver half.
func (s *Session) ReceiverToken() string { return s.tokenR }

// role matches a presented capability token against the session's two
// halves in constant time; ok is false for anything else.
func (s *Session) role(capability string) (wire.Role, bool) {
	switch {
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.tokenS)) == 1:
		return wire.RoleSender, true
	case subtle.ConstantTimeCompare([]byte(capability), []byte(s.tokenR)) == 1:
		return wire.RoleReceiver, true
	}
	return "", false
}

// DrawSender draws n sender-half correlations (r0 blocks) through the
// tenant quota: shed requests fail typed (wire.ErrQuotaExceeded before
// any correlations move, wire.ErrPoolDry when generation is behind)
// and consume nothing.
func (s *Session) DrawSender(n int) ([]block.Block, error) {
	if err := s.admit(n); err != nil {
		return nil, err
	}
	z, err := s.pool.SenderCOTs(n)
	if err != nil {
		return nil, s.reg.mapDrawErr(err)
	}
	return z, nil
}

// DrawReceiver draws n receiver-half correlations (choice bits and r_b
// blocks); same quota and shed semantics as DrawSender.
func (s *Session) DrawReceiver(n int) ([]bool, []block.Block, error) {
	if err := s.admit(n); err != nil {
		return nil, nil, err
	}
	bits, blocks, err := s.pool.ReceiverCOTs(n)
	if err != nil {
		return nil, nil, s.reg.mapDrawErr(err)
	}
	return bits, blocks, nil
}

func (s *Session) admit(n int) error {
	if err := s.bucket.acquire(n); err != nil {
		s.reg.noteQuotaShed()
		return err
	}
	return nil
}

// Stats assembles the serializable per-session view from the
// registry-backed observers (NOT pool.Stats() — the Observer contract
// keeps the two views identical once draws quiesce, and serving from
// the registry guarantees STATS and the admin /metrics page can never
// disagree). refs/orphan state is passed in by the registry, which
// holds the lock.
func (s *Session) stats(refs int, expiresIn time.Duration) wire.SessionStats {
	st := wire.SessionStats{
		ID:       s.id,
		Shard:    wire.ShardOf(s.id),
		Params:   s.paramsName,
		Tenant:   s.tenant,
		Refs:     refs,
		Sender:   halfStats(s.obsS.Snapshot()),
		Receiver: halfStats(s.obsR.Snapshot()),
	}
	if refs == 0 {
		st.Orphaned = true
		st.ExpiresInMS = expiresIn.Milliseconds()
	}
	return st
}

// PoolStats returns the raw pool counters for both halves — the
// ground truth the registry-backed STATS view must agree with
// (diagnostic/test hook).
func (s *Session) PoolStats() (sender, receiver pool.Stats) {
	return s.pool.Stats()
}

func halfStats(st pool.Stats) wire.HalfStats {
	return wire.HalfStats{
		Generated:    st.Generated,
		Dispensed:    st.Dispensed,
		Refills:      st.Refills,
		Draws:        st.Draws,
		BlockedDraws: st.BlockedDraws,
		BlockedNS:    st.BlockedTime.Nanoseconds(),
		Buffered:     st.Buffered,
	}
}

// newToken samples a capability/routing token (128-bit, hex).
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// openSession mints a session's secrets for a resolved open request
// and returns the unregistered session plus its refill source: a
// dealer over one AES-CTR stream keyed from crypto/rand, which also
// yields Δ. The registry assigns the id, observers, and pool when it
// registers the session.
func openSession(cfg Config, name string, params ferret.Params, req OpenRequest) (*Session, pool.DealtRefill, error) {
	var seed [block.Size]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, nil, err
	}
	prg := aesprg.NewStream(block.FromBytes(seed[:]))
	delta := prg.Block()
	batch := params.Usable()
	src := func() ([]block.Block, []bool, []block.Block, error) {
		z, bits, y := make([]block.Block, batch), make([]bool, batch), make([]block.Block, batch)
		cot.Deal(prg, delta, z, bits, y)
		return z, bits, y, nil
	}
	tokenS, err := newToken()
	if err != nil {
		return nil, nil, err
	}
	tokenR, err := newToken()
	if err != nil {
		return nil, nil, err
	}
	routeToken := req.Token
	if routeToken == "" {
		if routeToken, err = newToken(); err != nil {
			return nil, nil, err
		}
	}

	lease := req.Lease
	if lease <= 0 {
		lease = cfg.Lease
	}
	if lease > cfg.MaxLease {
		lease = cfg.MaxLease
	}

	sess := &Session{
		token:      routeToken,
		paramsName: name,
		tenant:     req.Tenant,
		batch:      batch,
		lease:      lease,
		delta:      delta,
		tokenS:     tokenS,
		tokenR:     tokenR,
		refs:       1,
	}
	return sess, src, nil
}

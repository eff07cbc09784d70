package session

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ironman/internal/block"
	"ironman/internal/otserv/wire"
)

func testConfig() Config {
	return Config{
		DefaultParams: "tiny",
		MaxSessions:   32,
		Sweep:         time.Hour, // tests drive Expire by hand
	}
}

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r := NewRegistry(cfg)
	t.Cleanup(r.Close)
	return r
}

// verifyCOTs checks the dealt correlation invariant z = y ⊕ b·Δ.
func verifyCOTs(t *testing.T, delta block.Block, z []block.Block, bits []bool, y []block.Block) {
	t.Helper()
	if len(z) != len(bits) || len(z) != len(y) {
		t.Fatalf("length mismatch: %d z, %d bits, %d y", len(z), len(bits), len(y))
	}
	for i := range z {
		want := y[i]
		if bits[i] {
			want = want.Xor(delta)
		}
		if z[i] != want {
			t.Fatalf("correlation broken at %d", i)
		}
	}
}

func TestOpenStampsShardScopedIDs(t *testing.T) {
	cfg := testConfig()
	cfg.ShardID = 3
	r := newTestRegistry(t, cfg)
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if wire.ShardOf(sess.ID()) != 3 {
		t.Fatalf("ShardOf(%d) = %d, want 3", sess.ID(), wire.ShardOf(sess.ID()))
	}
	if sess.Token() == "" || sess.SenderToken() == "" || sess.ReceiverToken() == "" {
		t.Fatal("tokens must be minted")
	}
	if sess.Token() == sess.SenderToken() || sess.Token() == sess.ReceiverToken() {
		t.Fatal("routing token must differ from the capabilities")
	}
}

// TestDealtAcrossRefills: a session deals its stream one batch per
// refill. Draws that run through several refills, one of them
// straddling a batch boundary, all verify against the session's Δ,
// and two sessions deal independent streams.
func TestDealtAcrossRefills(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	a, err := r.Open(OpenRequest{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Open(OpenRequest{Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := resolveParams("tiny")
	if err != nil {
		t.Fatal(err)
	}
	batch := a.Batch()
	if batch != tiny.Usable() {
		t.Fatalf("batch = %d, want the tiny set's usable yield %d", batch, tiny.Usable())
	}
	// batch-100, then 200 across the first boundary, then two more
	// batches: 3·batch+100 correlations over four refills.
	var first block.Block
	for i, n := range []int{batch - 100, 200, 2 * batch} {
		z, err := a.DrawSender(n)
		if err != nil {
			t.Fatal(err)
		}
		bits, y, err := a.DrawReceiver(n)
		if err != nil {
			t.Fatal(err)
		}
		verifyCOTs(t, a.Delta(), z, bits, y)
		if i == 0 {
			first = z[0]
		}
	}
	if sender, receiver := a.PoolStats(); sender.Refills < 3 || receiver.Refills < 3 {
		t.Fatalf("draws took %d/%d refills, want at least 3", sender.Refills, receiver.Refills)
	}
	zb, err := b.DrawSender(1)
	if err != nil {
		t.Fatal(err)
	}
	if zb[0] == first || a.Delta() == b.Delta() {
		t.Fatal("two sessions dealt the same stream")
	}
}

// TestLeaseExpiryTypedError: an orphaned session past its lease is
// torn down by Expire, a late reconnect-with-token fails with the
// typed wire.ErrLeaseExpired, and an in-flight draw handle fails typed
// too — never a hang, never a generic miss.
func TestLeaseExpiryTypedError(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	token, capS := sess.Token(), sess.SenderToken()
	r.Detach(sess.ID(), true) // connection loss, not CLOSE

	if n := r.Expire(now.Add(40 * time.Millisecond)); n != 0 {
		t.Fatalf("expired %d sessions inside the lease window", n)
	}
	if n := r.Expire(now.Add(60 * time.Millisecond)); n != 1 {
		t.Fatalf("expired %d sessions past the lease, want 1", n)
	}
	if _, _, err := r.AttachByToken(token, capS); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("reconnect after expiry: err = %v, want ErrLeaseExpired", err)
	}
	if _, _, err := r.AttachByID(sess.ID(), capS); err == nil {
		t.Fatal("attach by id after expiry must fail")
	}
	if _, err := sess.DrawSender(8); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("draw on expired session: err = %v, want ErrLeaseExpired", err)
	}
	if _, _, err := r.AttachByToken("no-such-token", capS); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("unknown token: err = %v, want ErrLeaseExpired", err)
	}
	if dump := r.Dump(); dump.SessionsExpired != 1 {
		t.Fatalf("SessionsExpired = %d, want 1", dump.SessionsExpired)
	}
}

// TestReconnectResumesPoolPosition: draws before an orphan/reconnect
// cycle and after it stitch into one contiguous correlation stream —
// the reconnect resumed the exact pool position, byte-identically.
func TestReconnectResumesPoolPosition(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	const n1, n2 = 96, 160
	z1, err := sess.DrawSender(n1)
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), true) // drop the creator's conn

	st, err := r.Stats(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Orphaned {
		t.Fatal("session must report orphaned while the lease clock runs")
	}

	got, role, err := r.AttachByToken(sess.Token(), sess.SenderToken())
	if err != nil {
		t.Fatalf("reconnect inside the lease window: %v", err)
	}
	if got != sess || role != wire.RoleSender {
		t.Fatalf("reconnect landed on session %d role %q", got.ID(), role)
	}
	z2, err := got.DrawSender(n2)
	if err != nil {
		t.Fatal(err)
	}
	// The receiver half never detached conceptually; drawing the whole
	// n1+n2 stretch must pair exactly with z1 ++ z2.
	bits, y, err := sess.DrawReceiver(n1 + n2)
	if err != nil {
		t.Fatal(err)
	}
	verifyCOTs(t, sess.Delta(), append(append([]block.Block{}, z1...), z2...), bits, y)

	st, err = r.Stats(sess.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Orphaned || st.Refs != 1 {
		t.Fatalf("after reconnect: orphaned=%v refs=%d", st.Orphaned, st.Refs)
	}
}

// TestCloseIsImmediate: an explicit CLOSE (orphan=false) tears the
// session down with no lease window.
func TestCloseIsImmediate(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), false)
	if r.Len() != 0 {
		t.Fatalf("%d sessions live after CLOSE", r.Len())
	}
	if _, _, err := r.AttachByToken(sess.Token(), sess.SenderToken()); !errors.Is(err, wire.ErrLeaseExpired) {
		t.Fatalf("reattach after CLOSE: err = %v, want ErrLeaseExpired", err)
	}
}

// TestTenantSessionCap: the per-tenant session quota sheds typed and
// frees up when a session closes; other tenants are unaffected.
func TestTenantSessionCap(t *testing.T) {
	cfg := testConfig()
	cfg.Quota.SessionsPerTenant = 2
	r := newTestRegistry(t, cfg)

	a1, err := r.Open(OpenRequest{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("third acme session: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := r.Open(OpenRequest{Tenant: "globex"}); err != nil {
		t.Fatalf("other tenant blocked by acme's quota: %v", err)
	}
	r.Detach(a1.ID(), false)
	if _, err := r.Open(OpenRequest{Tenant: "acme"}); err != nil {
		t.Fatalf("quota slot not reclaimed on close: %v", err)
	}
	if dump := r.Dump(); dump.QuotaSheds == 0 {
		t.Fatal("quota shed not counted")
	}
}

// TestDrawRateQuotaSheds: a draw whose token-bucket reservation would
// mature past MaxWait sheds with wire.ErrQuotaExceeded up front and
// consumes nothing; in-budget draws keep working.
func TestDrawRateQuotaSheds(t *testing.T) {
	cfg := testConfig()
	cfg.Quota.DrawPerSec = 1000
	cfg.Quota.Burst = 128
	cfg.Quota.MaxWait = 10 * time.Millisecond
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.DrawSender(64); err != nil {
		t.Fatalf("in-burst draw: %v", err)
	}
	// 4096 over a ~64-token balance needs ~4 s of budget at 1000/s.
	if _, err := sess.DrawSender(4096); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("over-rate draw: err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := sess.DrawSender(16); err != nil {
		t.Fatalf("draw after shed: %v", err)
	}
	if dump := r.Dump(); dump.QuotaSheds == 0 {
		t.Fatal("rate shed not counted")
	}
}

// TestDrainRefusesOpens: a draining shard sheds HELLOs typed while
// existing sessions keep drawing.
func TestDrainRefusesOpens(t *testing.T) {
	r := newTestRegistry(t, testConfig())
	sess, err := r.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if _, err := r.Open(OpenRequest{}); !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("open on draining shard: err = %v, want ErrDraining", err)
	}
	if _, err := sess.DrawSender(32); err != nil {
		t.Fatalf("existing session must keep serving through drain: %v", err)
	}
	if r.Idle() {
		t.Fatal("shard with a live session is not idle")
	}
	r.Detach(sess.ID(), false)
	if !r.Idle() {
		t.Fatal("drained shard with zero sessions must report idle")
	}
}

// TestConcurrentExpiryVsDraw: goroutines hammer draws while the
// janitor expires the session under them. Run under -race: every draw
// either succeeds or fails with a typed sentinel — no hang, no panic,
// no data race.
func TestConcurrentExpiryVsDraw(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := testConfig()
	cfg.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	r := newTestRegistry(t, cfg)

	sess, err := r.Open(OpenRequest{Lease: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r.Detach(sess.ID(), true) // orphaned; lease clock running

	var wg sync.WaitGroup
	stopDraw := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(recv bool) {
			defer wg.Done()
			for {
				select {
				case <-stopDraw:
					return
				default:
				}
				var err error
				if recv {
					_, _, err = sess.DrawReceiver(16)
				} else {
					_, err = sess.DrawSender(16)
				}
				if err != nil {
					if !errors.Is(err, wire.ErrLeaseExpired) && !errors.Is(err, wire.ErrPoolDry) {
						t.Errorf("draw failed untyped: %v", err)
					}
					return
				}
			}
		}(i%2 == 0)
	}
	mu.Lock()
	now = now.Add(20 * time.Millisecond)
	mu.Unlock()
	for r.Expire(cfg.now()) == 0 {
		time.Sleep(time.Millisecond)
		mu.Lock()
		now = now.Add(time.Millisecond)
		mu.Unlock()
	}
	close(stopDraw)
	wg.Wait()
	if r.Len() != 0 {
		t.Fatalf("%d sessions live after expiry", r.Len())
	}
}

package nwsnet

import (
	"sync"
	"time"
)

// This file holds the server-side contracts of the forecast read plane:
// the push sink a subscribing connection exposes to its handler, the
// handler interface that serves subscribe/unsubscribe, and the per-tenant
// token bucket behind ServerLimits.TenantRate. The wire semantics are
// docs/PROTOCOL.md §8; the forecaster's implementation is forecaster.go.

// PushItem is one frame of a push batch: the subscription's original request
// ID and the encoded response body that follows it on the wire. Bodies are
// shared between a series' subscribers; a sink must not modify them.
type PushItem struct {
	ID   uint64
	Body []byte
}

// PushSink is the write half of one subscribing connection, handed to a
// SubscriptionHandler at subscribe time. PushBatch writes one
// server-initiated response frame per item, in order; the serve loop
// serializes the batch against ordinary responses, and a subscribe
// acknowledgement is always written before the first push for its ID. It
// delivers all of the batch or none of it: a sink that cannot take it right
// now drops it whole (0, nil — the subscriptions stay live), and an error
// means the connection is dead and the caller should DropSink.
//
// PushBatch must not be called while holding any lock a Subscribe or
// Unsubscribe call can take: the serve loop holds the sink's write lock
// across registration and its acknowledgement.
type PushSink interface {
	PushBatch(items []PushItem) (delivered int, err error)
}

// SubscriptionHandler is implemented by handlers that serve the v2
// subscribe/push read plane. The binary serve loop routes OpSubscribe and
// OpUnsubscribe here instead of Handle; a caller with no connection to push
// on (a LocalTransport, say) reaches Handle unrouted, whose default arm
// answers with a terminal "unsupported op" error.
type SubscriptionHandler interface {
	Handler
	// Subscribe registers sink for pushes on the series named by req,
	// keyed by the request ID id, and returns the acknowledgement
	// response (carrying the current forecast when one is computable).
	Subscribe(req Request, id uint64, sink PushSink) Response
	// Unsubscribe removes the sink's subscription on the series named by
	// req. Unsubscribing a series that was never subscribed is not an
	// error (the acknowledgement is idempotent).
	Unsubscribe(req Request, sink PushSink) Response
	// DropSink removes every subscription registered for sink — the
	// connection teardown path.
	DropSink(sink PushSink)
}

// subCounter is implemented by sinks that track their active-subscription
// count; the binary serve loop reads it to keep the idle deadline from
// disconnecting a connection that is quiet only because it is subscribed.
type subCounter interface{ addSubs(delta int64) }

// sinkCutter is implemented by sinks that can disconnect their subscriber
// without waiting for the write lock. A batch that ends subscriptions cannot
// be superseded by a later one, so when such a batch is dropped the
// connection is cut instead: the subscriber's terminal call becomes a
// transport error and it re-subscribes through the current view.
type sinkCutter interface{ cut() }

// tokenBucket is one tenant's request budget: tokens refill continuously at
// rate per second up to burst, and each admitted request spends one.
type tokenBucket struct {
	rate  float64
	burst float64
	clk   clock

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int, clk clock) *tokenBucket {
	b := float64(burst)
	if b <= 0 {
		b = max(1, rate)
	}
	return &tokenBucket{rate: rate, burst: b, clk: clk, tokens: b, last: clk.now()}
}

// allow spends one token when available, reporting whether the request is
// within quota.
func (b *tokenBucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.clk.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// maxTenantBuckets bounds the per-tenant bucket registry. Tenant IDs arrive
// off the wire, so an unbounded map would let a hostile client grow server
// memory one bucket per invented tenant; past the cap, unseen tenants share
// one overflow bucket (they throttle each other, never the registered set).
const maxTenantBuckets = 1024

// tenantBucket returns (creating on first use) the bucket for tenant.
func (s *Server) tenantBucket(tenant string) *tokenBucket {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	if b := s.tenants[tenant]; b != nil {
		return b
	}
	if len(s.tenants) >= maxTenantBuckets {
		if s.tenantOverflow == nil {
			s.tenantOverflow = newTokenBucket(s.limits.TenantRate, s.limits.TenantBurst, s.clk)
		}
		return s.tenantOverflow
	}
	if s.tenants == nil {
		s.tenants = make(map[string]*tokenBucket)
	}
	b := newTokenBucket(s.limits.TenantRate, s.limits.TenantBurst, s.clk)
	s.tenants[tenant] = b
	return b
}

// allowTenant reports whether a request attributed to tenant is within its
// quota. With no quota configured every request passes; OpHello itself is
// always admitted (it is how the tenant is attributed in the first place).
func (s *Server) allowTenant(tenant string) bool {
	if s.limits.TenantRate <= 0 {
		return true
	}
	return s.tenantBucket(tenant).allow()
}

// tenantBusy builds the over-quota shed response: the existing retryable
// busy code, so client breakers and retry policies compose unchanged.
func (s *Server) tenantBusy(tenant string) Response {
	mTenantThrottled.Inc()
	mServerShed.With(shedTenant).Inc()
	return busyResp("tenant %q over quota (%g req/s sustained); retry", tenant, s.limits.TenantRate)
}

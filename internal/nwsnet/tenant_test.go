package nwsnet

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"nwscpu/internal/resilience"
)

// The tenant-quota tests run on a server whose buckets never refill within a
// test (one token per ~11 days), so admissions are counted, not timed: a
// tenant gets exactly its burst and every request past it is a busy answer.

const quotaBurst = 8

func quotaServer(t *testing.T) (*Server, string) {
	t.Helper()
	return startServerLimits(t, NewMemory(0), ServerLimits{TenantRate: 1e-6, TenantBurst: quotaBurst})
}

// tenantPaths are the two client paths that attribute traffic to a tenant.
// Each dials one connection's worth of the tenant's traffic ("" stays
// anonymous: no hello is sent) and returns its request and close functions;
// busy answers surface unretried.
var tenantPaths = []struct {
	name string
	dial func(t *testing.T, addr, tenant string) (do func(Request) error, closeFn func())
}{
	{"client", func(t *testing.T, addr, tenant string) (func(Request) error, func()) {
		c := NewClientOptions(ClientOptions{
			Timeout: 5 * time.Second, Tenant: tenant,
			Retry: resilience.Policy{MaxAttempts: 1},
		})
		return func(req Request) error {
			_, err := c.do(context.Background(), addr, req)
			return err
		}, func() { c.Close() }
	}},
	{"mux", func(t *testing.T, addr, tenant string) (func(Request) error, func()) {
		t.Helper()
		m, err := DialMuxTenant(addr, tenant, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return func(req Request) error {
			_, err := m.Do(req)
			return err
		}, func() { m.Close() }
	}},
}

// tally issues n pings and counts the admitted and the busy; any other
// outcome is reported as an error.
func tally(do func(Request) error, n int) (admitted, busy int, err error) {
	for i := 0; i < n; i++ {
		switch e := do(Request{Op: OpPing}); {
		case e == nil:
			admitted++
		case IsBusy(e):
			busy++
		default:
			return admitted, busy, e
		}
	}
	return admitted, busy, nil
}

// mustTally is tally for the test goroutine.
func mustTally(t *testing.T, do func(Request) error, n int) (admitted, busy int) {
	t.Helper()
	admitted, busy, err := tally(do, n)
	if err != nil {
		t.Fatal(err)
	}
	return admitted, busy
}

// tenantSheds reads the two counters every over-quota answer must move.
func tenantSheds() [2]uint64 {
	return [2]uint64{mTenantThrottled.Value(), mServerShed.With(shedTenant).Value()}
}

// TestTenantQuotaHogShedNeighbourAdmitted: a tenant offering five times its
// burst over two connections gets exactly the burst — the hellos are free,
// the bucket belongs to the tenant, not the connection — and every request
// past it is a retryable busy, while a second tenant on the same server, at
// the same time, has its whole burst admitted.
func TestTenantQuotaHogShedNeighbourAdmitted(t *testing.T) {
	for _, path := range tenantPaths {
		t.Run(path.name, func(t *testing.T) {
			_, addr := quotaServer(t)
			const offered = 5 * quotaBurst
			callers := make([]func(Request) error, 3)
			for i, tenant := range []string{"hog", "hog", "good"} {
				do, closeFn := path.dial(t, addr, tenant)
				defer closeFn()
				callers[i] = do
			}
			sheds0 := tenantSheds()
			var wg sync.WaitGroup
			var admitted, busy [3]int
			var errs [3]error
			for i, n := range []int{offered / 2, offered / 2, quotaBurst} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					admitted[i], busy[i], errs[i] = tally(callers[i], n)
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := admitted[0] + admitted[1]; got != quotaBurst {
				t.Errorf("hog admitted %d of %d, want exactly its burst %d", got, offered, quotaBurst)
			}
			if got := busy[0] + busy[1]; got != offered-quotaBurst {
				t.Errorf("hog shed %d, want %d", got, offered-quotaBurst)
			}
			if admitted[2] != quotaBurst || busy[2] != 0 {
				t.Errorf("neighbour admitted %d and shed %d, want %d and 0", admitted[2], busy[2], quotaBurst)
			}
			sheds := tenantSheds()
			for i, name := range []string{"nws_tenant_throttled_total", `nws_server_shed_total{reason="tenant"}`} {
				if got := sheds[i] - sheds0[i]; got != offered-quotaBurst {
					t.Errorf("%s moved by %d, want %d", name, got, offered-quotaBurst)
				}
			}
		})
	}
}

// TestTenantQuotaAnonymousShareOneBucket: connections that never say hello
// draw on one shared bucket, which no named tenant's traffic touches.
func TestTenantQuotaAnonymousShareOneBucket(t *testing.T) {
	for _, path := range tenantPaths {
		t.Run(path.name, func(t *testing.T) {
			_, addr := quotaServer(t)
			a, closeA := path.dial(t, addr, "")
			defer closeA()
			b, closeB := path.dial(t, addr, "")
			defer closeB()
			named, closeNamed := path.dial(t, addr, "named")
			defer closeNamed()

			if admitted, _ := mustTally(t, a, quotaBurst-1); admitted != quotaBurst-1 {
				t.Fatalf("first anonymous connection admitted %d, want %d", admitted, quotaBurst-1)
			}
			if admitted, busy := mustTally(t, b, 3); admitted != 1 || busy != 2 {
				t.Errorf("second anonymous connection admitted %d and shed %d, want the one token left and 2 shed", admitted, busy)
			}
			if admitted, _ := mustTally(t, named, quotaBurst); admitted != quotaBurst {
				t.Errorf("named tenant admitted %d beside an exhausted anonymous bucket, want %d", admitted, quotaBurst)
			}
		})
	}
}

// TestTenantQuotaOverflowBucket: tenant IDs arrive off the wire, so the
// registry stops at maxTenantBuckets; tenants past it share one overflow
// bucket, throttling each other and never a registered tenant.
func TestTenantQuotaOverflowBucket(t *testing.T) {
	for _, path := range tenantPaths {
		t.Run(path.name, func(t *testing.T) {
			srv, addr := quotaServer(t)
			registered := func(i int) string { return fmt.Sprintf("tenant-%04d", i) }
			for i := 0; i < maxTenantBuckets; i++ {
				do, closeFn := path.dial(t, addr, registered(i))
				admitted, _ := mustTally(t, do, 1)
				closeFn()
				if admitted != 1 {
					t.Fatalf("%s: first request shed", registered(i))
				}
			}
			late1, close1 := path.dial(t, addr, "late-1")
			defer close1()
			late2, close2 := path.dial(t, addr, "late-2")
			defer close2()
			if admitted, _ := mustTally(t, late1, quotaBurst); admitted != quotaBurst {
				t.Fatalf("tenant %d admitted %d, want a fresh overflow burst %d", maxTenantBuckets+1, admitted, quotaBurst)
			}
			if admitted, _ := mustTally(t, late2, 1); admitted != 0 {
				t.Error("a second late tenant was admitted: it does not share the overflow bucket")
			}
			srv.tenantMu.Lock()
			buckets := len(srv.tenants)
			srv.tenantMu.Unlock()
			if buckets != maxTenantBuckets {
				t.Errorf("registry holds %d buckets, want %d", buckets, maxTenantBuckets)
			}
			first, closeFirst := path.dial(t, addr, registered(0))
			defer closeFirst()
			if admitted, _ := mustTally(t, first, quotaBurst); admitted != quotaBurst-1 {
				t.Errorf("registered tenant admitted %d beside an exhausted overflow bucket, want its remaining %d", admitted, quotaBurst-1)
			}
		})
	}
}

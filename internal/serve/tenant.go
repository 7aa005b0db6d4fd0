package serve

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"squall/internal/slab"
)

// ErrBudgetExceeded is the sentinel under every admission rejection; match
// it with errors.Is and unwrap *BudgetError for the numbers.
var ErrBudgetExceeded = errors.New("serve: tenant budget exceeded")

// Budget caps one tenant. Zero fields are unlimited.
type Budget struct {
	// MaxBytes caps the tenant's resident state, measured by the slab's
	// real-bytes MemSize as sampled by the executor. Registration is refused
	// while current usage has reached the cap; a query admitted under budget
	// may still grow past it (enforced at admission, not per tuple — pair
	// with Options.MemLimitPerTask for a hard per-task kill).
	MaxBytes int64 `json:"max_bytes"`
	// MaxQueries caps concurrently registered queries.
	MaxQueries int `json:"max_queries"`
}

// BudgetError reports an admission rejection: the tenant's usage at the
// moment of the decision against its budget.
type BudgetError struct {
	Tenant  string
	Used    int64 // resident bytes at rejection
	Queries int   // registered queries at rejection
	Budget  Budget
}

// Error names only the limits the budget sets; a zero limit is unlimited
// and is left out.
func (e *BudgetError) Error() string {
	var limits []string
	if e.Budget.MaxBytes > 0 {
		limits = append(limits, fmt.Sprintf("%dB used / %dB max", e.Used, e.Budget.MaxBytes))
	}
	if e.Budget.MaxQueries > 0 {
		limits = append(limits, fmt.Sprintf("%d queries / %d max", e.Queries, e.Budget.MaxQueries))
	}
	msg := "serve: tenant " + e.Tenant + " over budget"
	if len(limits) > 0 {
		msg += " (" + strings.Join(limits, ", ") + ")"
	}
	return msg + ": " + ErrBudgetExceeded.Error()
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// TenantStats is one tenant's published registry state. Bytes is resident
// state only; SpilledBytes is state the tier layer moved to disk — it stays
// visible (the tenant still owns it) but is never charged against MaxBytes,
// which caps RAM.
type TenantStats struct {
	Name         string `json:"name"`
	Queries      int    `json:"queries"`
	Bytes        int64  `json:"bytes"`
	SpilledBytes int64  `json:"spilled_bytes"`
	Budget       Budget `json:"budget"`
	Rejected     int64  `json:"rejected"`
	Evicted      int64  `json:"evicted"`
}

// Tenants is the admission-control registry: per-tenant budgets, live query
// counts and resident-byte meters. Meters are charged by the engine from
// the executor's memory observer; a registered query's charge is held until
// it is unregistered (its materialized results stay resident for
// subscribers), so "usage" means resident state, not instantaneous
// execution footprint.
type Tenants struct {
	mu sync.Mutex
	m  map[string]*tenantState
}

type tenantState struct {
	budget   Budget
	meter    slab.Meter
	queries  int
	rejected int64
	evicted  int64
}

// NewTenants returns an empty registry. Unknown tenants materialize on
// first use with an unlimited budget.
func NewTenants() *Tenants {
	return &Tenants{m: make(map[string]*tenantState)}
}

func (ts *Tenants) get(name string) *tenantState {
	t := ts.m[name]
	if t == nil {
		t = &tenantState{}
		ts.m[name] = t
	}
	return t
}

// SetBudget installs or replaces a tenant's budget. Existing queries are
// not evicted; the budget binds future admissions.
func (ts *Tenants) SetBudget(name string, b Budget) {
	ts.mu.Lock()
	ts.get(name).budget = b
	ts.mu.Unlock()
}

// Meter returns the tenant's resident-byte meter (created on demand).
func (ts *Tenants) Meter(name string) *slab.Meter {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return &ts.get(name).meter
}

// Admit charges one query slot against the tenant's budget, or returns a
// *BudgetError (errors.Is ErrBudgetExceeded) without side effects beyond
// the rejection counter.
func (ts *Tenants) Admit(name string) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.get(name)
	used := t.meter.Bytes()
	over := (t.budget.MaxQueries > 0 && t.queries+1 > t.budget.MaxQueries) ||
		(t.budget.MaxBytes > 0 && used >= t.budget.MaxBytes)
	if over {
		t.rejected++
		return &BudgetError{Tenant: name, Used: used, Queries: t.queries, Budget: t.budget}
	}
	t.queries++
	return nil
}

// Release returns a query slot (unregister or failed registration).
func (ts *Tenants) Release(name string) {
	ts.mu.Lock()
	if t := ts.m[name]; t != nil && t.queries > 0 {
		t.queries--
	}
	ts.mu.Unlock()
}

// NoteEviction bumps the tenant's eviction counter.
func (ts *Tenants) NoteEviction(name string) {
	ts.mu.Lock()
	ts.get(name).evicted++
	ts.mu.Unlock()
}

// Usage reports the tenant's current resident bytes and query count.
func (ts *Tenants) Usage(name string) (bytes int64, queries int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.m[name]
	if t == nil {
		return 0, 0
	}
	return t.meter.Bytes(), t.queries
}

// SpilledUsage reports the tenant's current on-disk bytes (tiered state the
// engine spilled on its behalf).
func (ts *Tenants) SpilledUsage(name string) int64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.m[name]
	if t == nil {
		return 0
	}
	return t.meter.SpilledBytes()
}

// Stats snapshots every tenant, sorted by name.
func (ts *Tenants) Stats() []TenantStats {
	ts.mu.Lock()
	out := make([]TenantStats, 0, len(ts.m))
	for name, t := range ts.m {
		out = append(out, TenantStats{
			Name:         name,
			Queries:      t.queries,
			Bytes:        t.meter.Bytes(),
			SpilledBytes: t.meter.SpilledBytes(),
			Budget:       t.budget,
			Rejected:     t.rejected,
			Evicted:      t.evicted,
		})
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

package jobd

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
)

// Paging bounds of GET /v1/jobs.
const (
	// ListDefaultLimit is the page length when ?limit= is absent.
	ListDefaultLimit = 100
	// ListMaxLimit is the largest ?limit= a server accepts. A summary
	// is about 380 bytes plus twice the node name, which also prefixes
	// job IDs, so a page at this limit stays under 1 MiB.
	ListMaxLimit = 1000
	// MaxNodeName bounds Options.NodeName, and with it the summary size.
	MaxNodeName = 128
)

// JobPage is one GET /v1/jobs response.
type JobPage struct {
	Jobs []JobSummary `json:"jobs"`
	// Next is the ?after= cursor of the following page; it is absent on
	// the last page.
	Next string `json:"next,omitempty"`
}

// ListQuery selects one page of the job list.
type ListQuery struct {
	// Limit is the page length, 1..ListMaxLimit.
	Limit int
	// After is an opaque cursor, a previous page's Next; "" starts at
	// the oldest retained job.
	After string
	// States keeps only jobs in one of these states; empty keeps all.
	States []State
}

// ParseListQuery reads ?limit=, ?after= and ?state= (a comma-separated
// list of states). A missing limit is ListDefaultLimit.
func ParseListQuery(v url.Values) (ListQuery, error) {
	q := ListQuery{Limit: ListDefaultLimit, After: v.Get("after")}
	if s := v.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > ListMaxLimit {
			return ListQuery{}, fmt.Errorf("jobd: limit %q is not an integer in 1..%d", s, ListMaxLimit)
		}
		q.Limit = n
	}
	if s := v.Get("state"); s != "" {
		for _, name := range strings.Split(s, ",") {
			st := State(name)
			switch st {
			case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
				q.States = append(q.States, st)
			default:
				return ListQuery{}, fmt.Errorf("jobd: unknown state %q in state filter", name)
			}
		}
	}
	return q, nil
}

// Values encodes q as the query string ParseListQuery reads.
func (q ListQuery) Values() url.Values {
	v := url.Values{}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.After != "" {
		v.Set("after", q.After)
	}
	if len(q.States) > 0 {
		names := make([]string, len(q.States))
		for i, st := range q.States {
			names[i] = string(st)
		}
		v.Set("state", strings.Join(names, ","))
	}
	return v
}

// selects reports whether the state filter keeps a job in state st.
func (q ListQuery) selects(st State) bool {
	return len(q.States) == 0 || slices.Contains(q.States, st)
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
	"repro/internal/tree"
)

// Client is the remote evaluation backend: a schedule.Backend that ships
// job batches to a service server over HTTP in the binary batch form (see
// binary.go) and reassembles the streamed rows in job order. Once a server
// has answered a batch with TreeRefsHeader, later batches reference the
// trees this client already shipped to it instead of inlining them again.
// Construct with NewClient.
//
// Batch submissions can be retried: with Retries > 0, transient failures —
// connection errors, 5xx/429 statuses, a response stream cut off before its
// done line — are resubmitted after an exponential backoff, while
// deterministic failures (4xx rejections, a job the server reports as
// failed) are not. Rows already streamed to the BatchOptions callbacks are
// not re-announced on a retry: the attempt replays the whole batch (the
// wire protocol is idempotent), but only rows for indices not yet seen fire
// the callbacks, so callers observe each row exactly once.
type Client struct {
	base string
	http *http.Client

	// Retries is the number of times a failed batch submission is retried
	// (0 = fail on the first error).
	Retries int
	// RetryBackoff is the delay before the first retry, doubling on each
	// subsequent one; ≤ 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Deprecated: every Client speaks the binary transport; the field is ignored.
	Binary bool
	// Tenant names the tenant every request runs as (the X-Tenant header);
	// empty selects the server's "default" tenant. Quotas, rejection
	// counters and retained trees are all per tenant.
	Tenant string
	// OnThrottle, when set, is called once per 429 (over-quota) response
	// with the server's Retry-After delay, before any retry sleep — load
	// harnesses count rejections with it, and operators can log or meter
	// backpressure. Called from Run's goroutine; keep it fast.
	OnThrottle func(retryAfter time.Duration)

	// refs records whether the server's last binary batch response
	// carried TreeRefsHeader.
	refs atomic.Bool
	// shipped holds the digests of the trees this client shipped inline in
	// binary batches that completed: the trees it may reference.
	shipped nodeLRU[tree.Digest, struct{}]
}

// StatusError is a non-200 response from the server: the probed path, the
// status code and the (truncated) body. Batch rejections carry the
// server's Retry-After hint, which Run's retry loop honors.
type StatusError struct {
	// Path is the request path that failed.
	Path string
	// Code is the HTTP status code.
	Code int
	// Msg is the response body, truncated.
	Msg string
	// RetryAfter is the parsed Retry-After header (0 when absent) — how
	// long the server asked the client to back off.
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("service: %s: %s", e.Path, e.Msg)
}

// DefaultRetryBackoff is the initial retry delay when Client.RetryBackoff
// is unset.
const DefaultRetryBackoff = 100 * time.Millisecond

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8080"; a trailing slash is tolerated). A nil
// httpClient selects http.DefaultClient, whose zero timeout suits the
// long-lived streaming batch call.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// Capabilities implements schedule.Backend.
func (c *Client) Capabilities() schedule.Capabilities {
	return schedule.Capabilities{Name: "http(" + c.base + ")", Remote: true}
}

// Health implements schedule.HealthChecker: it probes the server's
// /healthz endpoint — a fixed-cost status report, unlike /v1/algorithms,
// which allocates and serializes the full registry on every call — and
// returns nil when the server answers 200 with a decodable status body.
// The Shard scheduler uses it to decide whether a quarantined server has
// recovered and can be readmitted.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	var status struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return fmt.Errorf("service: decode healthz: %w", err)
	}
	if status.Status != "ok" {
		return fmt.Errorf("service: %s reports status %q", c.base, status.Status)
	}
	return nil
}

// setTenant stamps the client's tenant onto a request.
func (c *Client) setTenant(req *http.Request) {
	if c.Tenant != "" {
		req.Header.Set(TenantHeader, c.Tenant)
	}
}

// WarmRows implements schedule.RowWarmer: the keyed rows are pushed to the
// server's /v1/warm endpoint, landing in its row store (if it has one) so a
// later batch over the same jobs is answered without recomputation. The
// returned count is how many entries the server stored — 0 for a cacheless
// server, which accepts the push as a no-op.
func (c *Client) WarmRows(ctx context.Context, entries []schedule.WarmEntry) (int, error) {
	body, err := json.Marshal(WarmRequest{Entries: entries})
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/warm", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	c.setTenant(req)
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, httpError(resp)
	}
	var wr WarmResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
		return 0, fmt.Errorf("service: decode warm response: %w", err)
	}
	return wr.Stored, nil
}

// transientError marks a failure worth resubmitting: the server may simply
// have been unreachable or restarting, and the batch protocol is
// idempotent.
type transientError struct{ err error }

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }

// Run implements schedule.Backend: it encodes the batch in the binary
// form, each distinct tree and order once, posts it, streams rows back and
// returns them in job order. Rows are exactly what the server computed —
// the remote grid is bit-identical to a local run up to the Seconds
// column. Transient submission failures are retried per the
// Retries/RetryBackoff fields.
//
// A batch references the trees the server already holds. When the server
// answers 409 because it no longer holds some of them, Run forgets those
// and resends the batch once with every tree inline; the resend does not
// count against Retries.
func (c *Client) Run(ctx context.Context, jobs []schedule.Job, opt schedule.BatchOptions) ([]schedule.Row, error) {
	body, inline, err := encodeBatchBinary(jobs, opt.Workers, c.refPolicy())
	if err != nil {
		return nil, err
	}
	// rows/got persist across attempts: a retry replays the whole batch,
	// but rows already received keep their first-seen values and do not
	// re-fire the callbacks.
	rows := make([]schedule.Row, len(jobs))
	got := make([]bool, len(jobs))
	backoff := c.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	resent := false
	for attempt := 0; ; attempt++ {
		err := c.runAttempt(ctx, body, jobs, opt, rows, got)
		var missing *missingTreesError
		if errors.As(err, &missing) && !resent {
			c.shipped.remove(missing.digests...)
			if body, inline, err = encodeBatchBinary(jobs, opt.Workers, nil); err != nil {
				return nil, err
			}
			resent = true
			err = c.runAttempt(ctx, body, jobs, opt, rows, got)
		}
		if err == nil {
			if c.refs.Load() {
				for _, t := range inline {
					c.shipped.add(t.Digest(), struct{}{}, t.Len())
				}
			}
			return rows, nil
		}
		_, transient := err.(transientError)
		if transient && ctx.Err() != nil {
			// The attempt died because the context did: the request was
			// built with the context, so cancelling it aborts the in-flight
			// HTTP call (the server's handler sees its request context
			// cancelled and stops evaluating — a hedge loser stops burning
			// child capacity). Surface the cancellation itself, not the
			// transport error it manifested as.
			return nil, ctx.Err()
		}
		if attempt >= c.Retries || !transient {
			return nil, err
		}
		// A 429's Retry-After extends the backoff: the server said when
		// admission can succeed, so retrying sooner only burns an attempt.
		wait := backoff
		var se *StatusError
		if errors.As(err, &se) && se.RetryAfter > wait {
			wait = se.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		backoff *= 2
	}
}

// maxResponseDrain bounds what drainResponse reads past the end of a
// response's rows; a server sends nothing there, so only a misbehaving
// one can exceed it, and then the connection closes.
const maxResponseDrain = 64 << 10

// drainResponse reads a complete response body to EOF, up to
// maxResponseDrain, so the transport keeps the connection for the next
// batch: closing a body before its EOF was read drops the connection, and
// whether the end of a chunked body arrived with the last rows depends on
// timing.
func drainResponse(body io.Reader) {
	io.CopyN(io.Discard, body, maxResponseDrain)
}

// runAttempt posts the encoded batch once, filling rows/got for every index
// streamed back. A batch is complete when the done frame arrives and every
// index was received (this attempt or an earlier one).
func (c *Client) runAttempt(ctx context.Context, body []byte, jobs []schedule.Job, opt schedule.BatchOptions, rows []schedule.Row, got []bool) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", ContentTypeBinaryBatch)
	hreq.Header.Set("Accept", ContentTypeBinaryRows)
	c.setTenant(hreq)
	resp, err := c.http.Do(hreq)
	if err != nil {
		return transientError{err}
	}
	defer resp.Body.Close()
	c.refs.Store(resp.Header.Get(TreeRefsHeader) != "")
	if resp.StatusCode == http.StatusConflict {
		return unknownTreesResponse(resp)
	}
	if resp.StatusCode != http.StatusOK {
		err := httpError(resp)
		if resp.StatusCode == http.StatusTooManyRequests {
			if c.OnThrottle != nil {
				var se *StatusError
				var after time.Duration
				if errors.As(err, &se) {
					after = se.RetryAfter
				}
				c.OnThrottle(after)
			}
			return transientError{err}
		}
		if resp.StatusCode >= 500 {
			return transientError{err}
		}
		return err
	}
	if ct := resp.Header.Get("Content-Type"); !isBinaryRows(ct) {
		return fmt.Errorf("service: batch response has Content-Type %q, want %q", ct, ContentTypeBinaryRows)
	}
	if err := readBinaryResponse(resp.Body, jobs, opt, rows, got); err != nil {
		return err
	}
	drainResponse(resp.Body)
	return nil
}

// refPolicy picks the trees a batch references: the trees this client
// shipped to a server that resolves references, or none (a nil policy).
func (c *Client) refPolicy() func(*tree.Tree) bool {
	if !c.refs.Load() {
		return nil
	}
	return func(t *tree.Tree) bool {
		_, ok := c.shipped.get(t.Digest())
		return ok
	}
}

// missingTreesError is a 409 answer to a batch: the server holds
// none of the listed trees. It unwraps to the response's *StatusError.
type missingTreesError struct {
	*StatusError
	digests []tree.Digest
}

func (e *missingTreesError) Unwrap() error { return e.StatusError }

// unknownTreesResponse reads a 409 answer to a batch. A body that
// does not list the missing digests is returned as a plain *StatusError.
func unknownTreesResponse(resp *http.Response) error {
	var body unknownTreesBody
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBatchBytes)).Decode(&body); err != nil || len(body.Missing) == 0 {
		return &StatusError{Path: resp.Request.URL.Path, Code: resp.StatusCode, Msg: resp.Status}
	}
	e := &missingTreesError{StatusError: &StatusError{Path: resp.Request.URL.Path, Code: resp.StatusCode, Msg: body.Error}}
	for _, s := range body.Missing {
		d, err := tree.ParseDigest(s)
		if err != nil {
			return e.StatusError
		}
		e.digests = append(e.digests, d)
	}
	return e
}

// Stream implements schedule.Backend: the job stream is cut into chunks,
// each chunk travels as one POST /v1/batch call (with per-chunk retry per
// the Retries field), and the rows merge into the sink in job order. Neither
// side ever holds more than ChunkSize × InFlight jobs or rows, so a grid
// larger than either process's memory can flow through the service.
func (c *Client) Stream(ctx context.Context, src schedule.JobSource, sink schedule.RowSink, opt schedule.StreamOptions) error {
	return schedule.StreamChunked(ctx, c.Run, src, sink, opt)
}

// httpError reads a non-200 response into a *StatusError, keeping the
// body short and parsing the Retry-After header (integer seconds or HTTP
// date) when present.
func httpError(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(b))
	if msg == "" {
		msg = resp.Status
	}
	se := &StatusError{Path: resp.Request.URL.Path, Code: resp.StatusCode, Msg: msg}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		} else if t, err := http.ParseTime(ra); err == nil {
			if d := time.Until(t); d > 0 {
				se.RetryAfter = d
			}
		}
	}
	return se
}

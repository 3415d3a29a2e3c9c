package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"paramra"
	"paramra/internal/analysis"
	"paramra/internal/cache"
	"paramra/internal/lang"
	"paramra/internal/obs"
	"paramra/internal/serve"
)

// executor performs one op on an input through the public entry point a
// user calls. With root set the op is traced: its stages are timed in spans
// under root, and the program's own spans nest under them.
type executor interface {
	// op returns, beside the verdict, the program spans a service sent back,
	// which belong under the op's "serve.request" span.
	op(ctx context.Context, in *input, root *obs.Span) (unsafe bool, graft []*obs.TreeNode, err error)
	// counters scrapes the service's /metrics (nil for library workloads).
	counters(ctx context.Context) (map[string]float64, error)
	close() error
}

var errIncomplete = errors.New("no verdict: a search limit was hit")

// opTimeout bounds one library op; an op that needs longer counts as failed.
const opTimeout = 60 * time.Second

// library calls the verifier in-process with fixed options.
type library struct{ opts paramra.Options }

// servedOptions are the options raserved gives a request that names none.
func servedOptions() (paramra.Options, error) {
	return serve.Config{}.Defaulted().Options(serve.RequestOptions{})
}

// op is paramra.Parse then paramra.Verify. A traced op wraps the parse in a
// span, hands root to Verify as its TraceSpan, and then encodes the result
// as raserved would, in a span of its own.
func (l library) op(ctx context.Context, in *input, root *obs.Span) (bool, []*obs.TreeNode, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	s := root.Child("lang.parse")
	sys, err := paramra.Parse(in.src)
	s.End()
	if err != nil {
		return false, nil, err
	}
	opts := l.opts
	opts.TraceSpan = root
	res, err := paramra.Verify(ctx, sys, opts)
	if err != nil {
		return false, nil, err
	}
	if root != nil {
		s = root.Child("serve.encode")
		_, err = json.Marshal(serve.VerifyResponse{APIVersion: serve.APIVersion, System: sys.Name,
			Verdict: serve.Verdict(res), Result: serve.FromResult(res)})
		s.End()
		if err != nil {
			return false, nil, err
		}
	}
	if !res.Complete {
		return false, nil, errIncomplete
	}
	return res.Unsafe, nil, nil
}

func (library) counters(context.Context) (map[string]float64, error) { return nil, nil }

func (library) close() error { return nil }

// service is an in-process raserved with the verdict cache on, driven over
// loopback HTTP.
type service struct {
	base   string
	client *http.Client
	stop   context.CancelFunc
	done   chan error
}

// requestBudgetMs is the budget each request asks for; exhausting it is a
// 408 and counts as a failed op. Every other option is the server's default.
const requestBudgetMs = 2000

func startService(ctx context.Context, clients int) (executor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := serve.New(serve.Config{CacheSize: 4096})
	sctx, cancel := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln, 10*time.Second) }()
	return &service{
		base: "http://" + ln.Addr().String(),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients},
			Timeout:   30 * time.Second,
		},
		stop: cancel,
		done: done,
	}, nil
}

func (s *service) post(ctx context.Context, src string, traced bool) (serve.VerifyResponse, error) {
	var vr serve.VerifyResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/v1/verify?budgetMs=%d", s.base, requestBudgetMs), strings.NewReader(src))
	if err != nil {
		return vr, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if traced {
		req.Header.Set("X-Trace", "1")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return vr, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return vr, fmt.Errorf("reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return vr, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &vr); err != nil {
		return vr, fmt.Errorf("decoding response: %w", err)
	}
	if !vr.Result.Complete {
		return vr, errIncomplete
	}
	return vr, nil
}

// op sends the request. A traced op first times on the client the stages
// the server runs outside any span (parse, slice, canonicalize) by replaying
// them on the request body, then sends the request with X-Trace: 1 and
// returns the server's span tree.
func (s *service) op(ctx context.Context, in *input, root *obs.Span) (bool, []*obs.TreeNode, error) {
	if root == nil {
		vr, err := s.post(ctx, in.src, false)
		return vr.Result.Unsafe, nil, err
	}
	sp := root.Child("lang.parse")
	sys, err := lang.ParseSystem(in.src)
	sp.End()
	if err != nil {
		return false, nil, err
	}
	sp = root.Child("analysis.slice")
	sliced, _ := analysis.Slice(sys, analysis.SliceOptions{})
	sp.End()
	sp = root.Child("cache.canonicalize")
	cache.Canonicalize(sliced)
	sp.End()

	sp = root.Child("serve.request")
	vr, err := s.post(ctx, in.src, true)
	sp.End()
	if err != nil {
		return false, nil, err
	}
	sp = root.Child("serve.encode")
	_, err = json.Marshal(vr)
	sp.End()
	if err == nil && (vr.Trace == nil || vr.Trace.Error != "") {
		err = fmt.Errorf("the response carries no span tree: %+v", vr.Trace)
	}
	if err != nil {
		return false, nil, err
	}
	return vr.Result.Unsafe, vr.Trace.Spans, nil
}

func (s *service) counters(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	fams, err := serve.ParsePrometheus(string(body))
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := map[string]float64{}
	for _, f := range fams {
		for name, v := range f.Samples {
			out[name] = v
		}
	}
	return out, nil
}

// close drains the server and waits for it to stop.
func (s *service) close() error {
	s.client.CloseIdleConnections()
	s.stop()
	return <-s.done
}

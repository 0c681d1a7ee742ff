package obs

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestServeDebugEndpoints binds the debug server to an ephemeral port
// and checks both halves of the mux: the pprof index and the Prometheus
// exposition of the given registry.
func TestServeDebugEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("debug_test_total", "Smoke counter.").Add(3)
	var b strings.Builder
	stop, err := ServeDebug("127.0.0.1:0", r, &b)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	out := b.String()
	i := strings.Index(out, "http://")
	if i < 0 {
		t.Fatalf("bound address not printed: %q", out)
	}
	base := strings.TrimSpace(out[i:])

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index unexpected:\n%.200s", body)
	}
	body := get("/metrics")
	if !strings.Contains(body, "# TYPE debug_test_total counter") {
		t.Errorf("/metrics not in Prometheus exposition format:\n%.200s", body)
	}
	if !strings.Contains(body, "debug_test_total 3") {
		t.Errorf("/metrics missing the registry's counter:\n%.200s", body)
	}

	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("server still reachable after stop")
	}
}

// TestServeDebugBadAddr: an unbindable address surfaces as an error,
// not a panic.
func TestServeDebugBadAddr(t *testing.T) {
	if _, err := ServeDebug("256.0.0.1:99999", NewRegistry(), io.Discard); err == nil {
		t.Error("expected listen error")
	}
}

// TestServeHandlerDrainsInflightScrape is the regression test for the
// hard-close lifecycle bug: stop used srv.Close, which aborted every
// in-flight /metrics scrape mid-response. Now a scrape that is already
// being served when stop is called must complete with a full 200
// response while stop waits for it.
func TestServeHandlerDrainsInflightScrape(t *testing.T) {
	r := NewRegistry()
	r.Counter("drain_test_total", "Smoke counter.").Add(7)
	mux := DebugMux(r)
	started := make(chan struct{})
	release := make(chan struct{})
	wrapped := http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/metrics" {
			close(started)
			<-release // hold the scrape in flight across the stop call
		}
		mux.ServeHTTP(rw, req)
	})
	bound, stop, err := ServeHandler("127.0.0.1:0", wrapped)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + bound

	type scrape struct {
		body string
		err  error
	}
	scrapeDone := make(chan scrape, 1)
	go func() {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			scrapeDone <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		scrapeDone <- scrape{body: string(body), err: err}
	}()

	<-started
	stopDone := make(chan error, 1)
	go func() { stopDone <- stop() }()

	// The drain must wait for the in-flight scrape: stop cannot have
	// returned before the handler is released.
	select {
	case err := <-stopDone:
		t.Fatalf("stop returned (%v) while a scrape was still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	s := <-scrapeDone
	if s.err != nil {
		t.Fatalf("in-flight scrape aborted by shutdown: %v", s.err)
	}
	if !strings.Contains(s.body, "drain_test_total 7") {
		t.Fatalf("drained scrape returned a truncated body:\n%.200s", s.body)
	}
	if err := <-stopDone; err != nil {
		t.Fatalf("stop: %v", err)
	}
	// Stop is idempotent: a second call reports the settled result.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// TestServeHandlerDropsStalledHeader: a client that starts a request
// header and never finishes it is disconnected once the read-header
// timeout passes, instead of holding the connection open.
func TestServeHandlerDropsStalledHeader(t *testing.T) {
	defer func(d time.Duration) { serveReadHeaderTimeout = d }(serveReadHeaderTimeout)
	serveReadHeaderTimeout = 100 * time.Millisecond
	bound, stop, err := ServeHandler("127.0.0.1:0", DebugMux(NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server still held the stalled connection after %v", time.Since(start))
	}
}

// TestDebugMuxMetricsJSON: the mux serves the stable JSON snapshot the
// metricscheck validator consumes.
func TestDebugMuxMetricsJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("json_test_total", "Smoke counter.").Add(5)
	bound, stop, err := ServeHandler("127.0.0.1:0", DebugMux(r))
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := http.Get("http://" + bound + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(string(body), `"name": "json_test_total"`) {
		t.Errorf("/metrics.json missing the counter:\n%.200s", body)
	}
}

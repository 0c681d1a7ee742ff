package obs

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// DebugMux returns the runtime-introspection mux shared by the CLIs'
// -pprof flag and the satqosd evaluation service: the net/http/pprof
// profiling endpoints, the registry's Prometheus exposition under
// /metrics, and its stable JSON snapshot under /metrics.json (the form
// cmd/metricscheck validates). Servers with their own routes start from
// this mux and add handlers to it.
func DebugMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(rw)
	})
	mux.HandleFunc("/metrics.json", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		r.WriteJSON(rw)
	})
	return mux
}

// debugShutdownTimeout bounds the graceful drain performed by the stop
// functions ServeHandler returns: in-flight requests (a /metrics scrape,
// a pprof profile) get this long to complete before the remaining
// connections are hard-closed.
const debugShutdownTimeout = 5 * time.Second

// Connection bounds of the server ServeHandler starts: a client must
// finish its request header within serveReadHeaderTimeout, so a
// slow-drip header cannot hold a connection open, and a keep-alive
// connection idle for serveIdleTimeout is closed. Request bodies and
// responses are not bounded in time: a pprof profile legitimately
// streams for as long as its seconds parameter asks. Variables only so
// tests can shorten them.
var (
	serveReadHeaderTimeout = 10 * time.Second
	serveIdleTimeout       = 2 * time.Minute
)

// ServeHandler starts an HTTP server for handler on addr (":0" picks an
// ephemeral port) and returns the bound address plus a stop function.
//
// Stop drains gracefully: the listener closes immediately, in-flight
// requests run to completion within debugShutdownTimeout, and only
// connections that outlive the budget are hard-closed. Stop also
// surfaces the background srv.Serve error, which a bare `go srv.Serve`
// would silently discard: if the serve loop ever failed (rather than
// ending in the expected http.ErrServerClosed), stop reports it. Stop
// is safe to call more than once; later calls return the first result.
func ServeHandler(addr string, handler http.Handler) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("debug listen: %w", err)
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: serveReadHeaderTimeout,
		IdleTimeout:       serveIdleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	var once sync.Once
	var stopErr error
	stop = func() error {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), debugShutdownTimeout)
			defer cancel()
			shutdownErr := srv.Shutdown(ctx)
			if shutdownErr != nil {
				// The drain budget expired with requests still in flight;
				// hard-close what remains so stop never hangs.
				srv.Close()
			}
			if err := <-serveErr; err != nil && err != http.ErrServerClosed {
				stopErr = err
				return
			}
			stopErr = shutdownErr
		})
		return stopErr
	}
	return ln.Addr().String(), stop, nil
}

// ServeDebug starts the runtime-introspection HTTP server shared by the
// CLIs' -pprof flag: the DebugMux endpoints for the given registry. The
// bound address is printed to w so callers (and tests) can use ":0".
// The returned stop drains in-flight scrapes (see ServeHandler) instead
// of aborting them, and surfaces any background serve error.
func ServeDebug(addr string, r *Registry, w io.Writer) (stop func() error, err error) {
	bound, stop, err := ServeHandler(addr, DebugMux(r))
	if err != nil {
		return nil, fmt.Errorf("pprof %w", err)
	}
	fmt.Fprintf(w, "pprof and /metrics serving on http://%s\n", bound)
	return stop, nil
}

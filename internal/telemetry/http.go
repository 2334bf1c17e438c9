package telemetry

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// expvar exposes one process-global variable namespace, so the
// registry behind /debug/vars is an atomic pointer the most recent
// Handler call installs: expvar.Publish panics on duplicate names,
// and tests build many registries per process.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

func publishExpvar(r *Registry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("privapprox", expvar.Func(func() any {
			reg := expvarReg.Load()
			if reg == nil {
				return nil
			}
			samples := reg.Gather()
			out := make(map[string]float64, len(samples))
			for _, s := range samples {
				key := s.Name
				if s.LabelKey != "" {
					key += "{" + s.LabelKey + "=" + s.LabelValue + "}"
				}
				out[key] = s.Value
			}
			return out
		}))
	})
}

// Route is an extra endpoint mounted on the introspection mux — the
// lineage debug page, readiness probes, role-specific handlers.
type Route struct {
	Pattern string
	Handler http.Handler
}

// HealthzRoute is the liveness probe: it answers 200 whenever the
// process can serve HTTP at all.
func HealthzRoute() Route {
	return Route{Pattern: "/healthz", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ok\n"))
	})}
}

// ReadyRoute is the readiness probe: check reports nil when the role
// is ready to serve (e.g. every control-plane sink has acked the
// current query-set version); a non-nil error yields 503 with the
// reason in the body.
func ReadyRoute(check func() error) Route {
	return Route{Pattern: "/readyz", Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if err := check(); err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("ready\n"))
	})}
}

// handler returns the introspection endpoint for a registry:
//
//	/metrics       Prometheus text exposition
//	/debug/vars    expvar (process globals + the registry under "privapprox")
//	/debug/pprof/  the standard pprof surface
//
// plus any extra routes.
func handler(r *Registry, routes ...Route) http.Handler {
	publishExpvar(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.writeProm(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range routes {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

// Server is a live introspection listener; Close shuts it down.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the introspection endpoint on addr (host:port; port 0
// picks a free port) and serves it in the background, mounting any
// extra routes. The returned Server reports the bound address and
// closes the listener.
func Serve(addr string, r *Registry, routes ...Route) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler(r, routes...)}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the listener's bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

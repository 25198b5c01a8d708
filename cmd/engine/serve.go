package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sketchengine/internal/cluster"
	"sketchengine/internal/core"
	"sketchengine/internal/fault"
	"sketchengine/internal/server"
)

// serveBaseContext is the parent of the serve loop's signal context.
// Tests override it to stop a running serve command without delivering
// real signals to the test process.
var serveBaseContext = context.Background

func cmdServe(argv []string, stdout, stderr io.Writer) error {
	fs := newFlagSet("serve", stderr)
	ixf := addIndexFlags(fs)
	ixf.retunes = true
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	pprofAddr := fs.String("pprof-addr", "",
		"listen address for net/http/pprof (e.g. 127.0.0.1:6060; empty disables)")
	coordinator := fs.Bool("coordinator", false,
		"run as a cluster coordinator: serve no local index, scatter-gather over -backends")
	backends := fs.String("backends", "",
		"comma-separated backend addresses (host:port,...) for -coordinator mode")
	replication := fs.Int("replication", cluster.DefaultReplication,
		"backends holding each record in -coordinator mode (writes need a majority)")
	fanoutTimeout := fs.Duration("fanout-timeout", cluster.DefaultFanoutTimeout,
		"per-backend request timeout inside a coordinator fan-out")
	healthEvery := fs.Duration("health-every", cluster.DefaultHealthInterval,
		"coordinator backend health probe interval")
	hintsDir := fs.String("hints-dir", "",
		"coordinator hinted-handoff directory: durable hints for replicas that miss quorum-acked writes (empty keeps hints in memory)")
	hintTTL := fs.Duration("hint-ttl", cluster.DefaultHintTTL,
		"how long a queued hint waits for its backend before expiring")
	repairEvery := fs.Duration("repair-every", 0,
		"coordinator anti-entropy repair sweep interval (0 disables; POST /v1/admin/repair always works)")
	db := fs.String("d", defaultIndexDir, "index directory: opened if it holds an index, created otherwise; every acked write is fsynced to its write-ahead log and snapshots go into it")
	snapEvery := fs.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval (0 disables; shutdown always snapshots)")
	maxInFlight := fs.Int("max-inflight", server.DefaultMaxInFlight, "max concurrently served requests")
	maxBatch := fs.Int("max-batch", server.DefaultMaxBatch, "max records per ingest or replicate request, and per GET /v1/records page")
	maxBody := fs.Int64("max-body", server.DefaultMaxBodyBytes, "max request body size in bytes")
	drain := fs.Duration("drain-timeout", server.DefaultDrainTimeout, "how long shutdown waits for in-flight requests")
	faultSpec := fs.String("fault-spec", "",
		"chaos-testing only: arm fault injection, e.g. \"backend.rt:error=0.1;wal.fsync:fail-once\" (see docs/API.md)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for -fault-spec probability rolls, for exact replay of a schedule")
	if err := parseFlags(fs, argv); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %q (records are ingested over HTTP, not the command line)", fs.Args())
	}
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec, *faultSeed)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		fault.Enable(plan)
		fmt.Fprintf(stderr, "engine: serve: FAULT INJECTION ARMED spec=%q seed=%d (test tooling; disarm by restarting without -fault-spec)\n",
			*faultSpec, *faultSeed)
	}
	shell := server.ShellConfig{
		Addr:         *addr,
		MaxInFlight:  *maxInFlight,
		MaxBatch:     *maxBatch,
		MaxBodyBytes: *maxBody,
		DrainTimeout: *drain,
		Log:          slog.New(slog.NewTextHandler(stderr, nil)),
	}
	if *coordinator {
		// The coordinator owns no index: it routes over -backends.
		cfg := cluster.Config{
			ShellConfig:    shell,
			Replication:    *replication,
			FanoutTimeout:  *fanoutTimeout,
			HealthInterval: *healthEvery,
			HintsDir:       *hintsDir,
			HintTTL:        *hintTTL,
			RepairInterval: *repairEvery,
		}
		for _, part := range strings.Split(*backends, ",") {
			if part = strings.TrimSpace(part); part != "" {
				cfg.Backends = append(cfg.Backends, part)
			}
		}
		if len(cfg.Backends) == 0 {
			return fmt.Errorf("serve: -coordinator requires -backends host1:port,host2:port,...")
		}
		if len(cfg.Backends) < cfg.Replication {
			return fmt.Errorf("serve: -replication %d needs at least that many backends, got %d",
				cfg.Replication, len(cfg.Backends))
		}
		// Index flags are meaningless without an index; catch the ones a
		// single-node invocation would care about so a copy-pasted command
		// line fails loudly instead of silently dropping its index.
		ignored := map[string]bool{"d": true, "snapshot-every": true, "name": true}
		var bad []string
		fs.Visit(func(f *flag.Flag) {
			if ignored[f.Name] {
				bad = append(bad, "-"+f.Name)
			}
		})
		if len(bad) > 0 {
			fmt.Fprintf(stderr, "engine: serve: warning: %s ignored in -coordinator mode (the coordinator owns no index)\n",
				strings.Join(bad, ", "))
		}
		coord, err := cluster.New(cfg)
		if err != nil {
			return err
		}
		defer coord.Close()
		return runNode(coord, *pprofAddr, fmt.Sprintf("coordinator=true\tbackends=%d\treplication=%d\tquorum=%d",
			len(cfg.Backends), coord.Ring().Replication(), cfg.Replication/2+1), stdout)
	}
	if *backends != "" {
		return fmt.Errorf("serve: -backends requires -coordinator")
	}
	for flagName, v := range map[string]bool{"hints-dir": *hintsDir != "", "hint-ttl": *hintTTL != cluster.DefaultHintTTL, "repair-every": *repairEvery != 0} {
		if v {
			return fmt.Errorf("serve: -%s requires -coordinator", flagName)
		}
	}
	eng, err := ixf.openOrCreate("serve", *db, stderr)
	if err != nil {
		return err
	}
	ix := eng.Index()
	defer ix.Close()
	srv, err := server.New(eng, server.Config{ShellConfig: shell, SnapshotEvery: *snapEvery})
	if err != nil {
		return err
	}
	return runNode(srv, *pprofAddr, fmt.Sprintf("index=%s\trecords=%d\tmode=%s\tsnapshot=%s",
		ix.Metadata().Name, ix.Len(), core.ModeLSH, ix.DataDir()), stdout)
}

// runNode is the serve lifecycle both node roles share: the optional
// pprof side listener, Listen, the serving line (the bound address,
// then the role's fields), and Serve until SIGINT or SIGTERM drains it.
func runNode(n interface {
	Listen() (net.Addr, error)
	Serve(context.Context) error
}, pprofAddr, fields string, stdout io.Writer) error {
	if pprofAddr != "" {
		stop, bound, err := servePprof(pprofAddr)
		if err != nil {
			return err
		}
		defer stop()
		fmt.Fprintf(stdout, "pprof\taddr=%s\n", bound)
	}
	bound, err := n.Listen()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "serving\taddr=%s\t%s\n", bound, fields)
	ctx, stop := signal.NotifyContext(serveBaseContext(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return n.Serve(ctx)
}

// servePprof mounts the net/http/pprof handlers on their own listener,
// kept off the service mux so profiling endpoints are never reachable
// through the public address. It returns a stop function and the bound
// address (useful with port 0).
func servePprof(addr string) (stop func(), bound net.Addr, err error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("pprof: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	go func() {
		// Serve exits with an "use of closed connection" error when the
		// stop closure closes the listener; nothing to report.
		_ = http.Serve(lis, mux) //nolint:gosec // profiling side channel, bounded by -pprof-addr choice
	}()
	return func() { lis.Close() }, lis.Addr(), nil
}

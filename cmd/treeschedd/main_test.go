package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// boot starts the daemon on an ephemeral port and returns its base URL
// and the channel run's result arrives on.
func boot(t *testing.T, ckFile string, drainWait time.Duration) (base string, done <-chan error) {
	t.Helper()
	ready := make(chan net.Listener, 1)
	exited := make(chan error, 1)
	go func() {
		exited <- run("127.0.0.1:0", nil, ckFile, drainWait, ready)
	}()
	select {
	case ln := <-ready:
		return fmt.Sprintf("http://%s", ln.Addr()), exited
	case err := <-exited:
		t.Fatalf("server exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("server did not start")
	}
	return "", nil
}

// End-to-end: boot the daemon on an ephemeral port, schedule over HTTP,
// read stats, then shut down cleanly via the signal path.
func TestServeScheduleShutdown(t *testing.T) {
	base, done := boot(t, "", 5*time.Second)

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("healthz: %q", got)
	}
	body := `{"synthetic":{"seed":1,"nodes":200}}`
	resp, err := http.Post(base+"/schedule", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "makespan") {
		t.Fatalf("schedule: %d %s", resp.StatusCode, b)
	}
	if got := get("/statsz"); !strings.Contains(got, `"served":1`) {
		t.Fatalf("statsz: %q", got)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down on SIGINT")
	}
}

// A live /streamz subscriber must not cost the shutdown its drain: the
// stream ends as shutdown begins, run returns nil well inside the 10 s
// shutdown window, and the job the (zero) drain window could not finish
// is checkpointed.
func TestShutdownWithStreamSubscriber(t *testing.T) {
	ckFile := filepath.Join(t.TempDir(), "jobs.ckpt")
	base, done := boot(t, ckFile, time.Nanosecond)
	stream, err := http.Get(base + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("GET /streamz: %d", stream.StatusCode)
	}
	// Headers are back, so the handler is subscribed and in its loop.
	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"synthetic":{"seed":1,"nodes":200000}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d", resp.StatusCode)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a /streamz subscriber held the shutdown past 5 s")
	}
	if _, err := io.Copy(io.Discard, stream.Body); err != nil {
		t.Errorf("the stream did not end cleanly: %v", err)
	}
	b, err := os.ReadFile(ckFile)
	if err != nil {
		t.Fatalf("the pending job was not checkpointed: %v", err)
	}
	if !strings.Contains(string(b), `"nodes": 200000`) {
		t.Errorf("checkpoint does not hold the pending job: %s", b)
	}
}

// The -pprof listener is separate from the API address and serves the
// standard profile index.
func TestServePprof(t *testing.T) {
	if err := servePprof("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// servePprof logs the bound address; bind a known port instead for a
	// deterministic probe.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if err := servePprof(addr); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	for i := 0; i < 50; i++ {
		resp, err = http.Get("http://" + addr + "/debug/pprof/")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), "profile") {
		t.Fatalf("pprof index: status %d body %.80s", resp.StatusCode, b)
	}
}

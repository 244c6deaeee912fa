package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"phrasemine/bench/workload"
)

// server is one `phrasemine serve` child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *bytes.Buffer
	// dataPaths are the files and directories the server persists to
	// (snapshot or manifest directory, WAL directory): disk_amp's numerator.
	dataPaths []string
	tmp       string // private directory removed on stop ("" if none)
}

// children tracks live servers so a signal handler can kill them.
var children struct {
	sync.Mutex
	live map[*server]struct{}
}

func killChildren() {
	children.Lock()
	defer children.Unlock()
	for s := range children.live {
		_ = s.cmd.Process.Kill()
		_, _ = s.cmd.Process.Wait()
		if s.tmp != "" {
			_ = os.RemoveAll(s.tmp)
		}
	}
}

// startServer spawns the real serve binary for spec on an ephemeral
// loopback port and returns once the process exists; waitHealthy blocks
// until it answers. scratch is where a private snapshot copy and WAL
// directory go for workloads that write.
func startServer(fx fixtures, spec workload.Spec, fixture string, serverProcs int, scratch string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + strconv.Itoa(port), log: &bytes.Buffer{}}
	args := []string{"serve", "-addr", "127.0.0.1:" + strconv.Itoa(port)}
	switch {
	case spec.Segments > 1:
		args = append(args, "-manifest", fx.manifest(fixture))
		s.dataPaths = []string{fx.manifest(fixture)}
	case spec.WAL:
		s.tmp, err = os.MkdirTemp(scratch, "serve-")
		if err != nil {
			return nil, err
		}
		snap, wal := filepath.Join(s.tmp, "index.snap"), filepath.Join(s.tmp, "wal")
		if err := copyFile(snap, fx.snapshot(fixture)); err != nil {
			os.RemoveAll(s.tmp)
			return nil, err
		}
		args = append(args, "-index", snap, "-wal-dir", wal, "-wal-sync", "batch")
		s.dataPaths = []string{snap, wal}
	default:
		args = append(args, "-index", fx.snapshot(fixture))
		s.dataPaths = []string{fx.snapshot(fixture)}
	}
	if spec.Mmap {
		args = append(args, "-mmap")
	}
	if spec.CacheOff {
		args = append(args, "-cache", "-1")
	}
	s.cmd = exec.Command(filepath.Join(fx.bin, "phrasemine"), args...)
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	s.cmd.Stdout, s.cmd.Stderr = s.log, s.log
	// If the driver dies without running its handlers, the kernel still
	// takes the server down with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		if s.tmp != "" {
			os.RemoveAll(s.tmp)
		}
		return nil, err
	}
	children.Lock()
	if children.live == nil {
		children.live = map[*server]struct{}{}
	}
	children.live[s] = struct{}{}
	children.Unlock()
	return s, nil
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the server binds it; the window is small and a lost race
// shows up as a failed health check, not as a wrong measurement.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server not healthy after %v; its output:\n%s", timeout, s.log.String())
}

// peakRSSMiB reads the server's resident-set high-water mark.
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// diskBytes sums what the server has persisted.
func (s *server) diskBytes() (int64, error) {
	var total int64
	for _, p := range s.dataPaths {
		n, err := dirBytes(p)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// stop interrupts the server, waits for it to exit (killing it if the
// graceful shutdown overruns) and removes its private directory.
func (s *server) stop() {
	children.Lock()
	delete(children.live, s)
	children.Unlock()
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(done)
	}()
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	if s.tmp != "" {
		_ = os.RemoveAll(s.tmp)
	}
}

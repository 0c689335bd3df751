package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the checkout root: the
// directory whose go.mod declares the intellisphere module.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module intellisphere\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no intellisphere go.mod above the working directory")
		}
		dir = parent
	}
}

// buildDir is where everything the benchmark builds or writes at run time
// goes, apart from bench/out: inside the checkout and ignored by git.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// buildServe compiles cmd/serve from the checkout's source and returns the
// binary's path.
func buildServe(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "bin", "serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/serve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/serve: %v\n%s", err, out)
	}
	return bin, nil
}

// dieWithParent has the kernel kill a child when the driver dies, however it
// dies: the benchmark must not leave a process behind.
var dieWithParent = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

// serveProc is one running cmd/serve.
type serveProc struct {
	cmd  *exec.Cmd
	addr string
	logs bytes.Buffer
}

// serveArgs are the flags every workload boots the server with: production
// defaults plus the blackbox flink remote, so sub-op formula, NN and hybrid
// estimators are all on the path. No -warm: the workload warms the caches.
func serveArgs(addr, dataDir string) []string {
	args := []string{"-addr", addr, "-logical-remote", "-seed", "1"}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// awaitHealthy polls addr's /health until the first 200 and returns the time
// since start: for a process exec'ed at start, the cold-boot time a
// deployment pays.
func awaitHealthy(addr string, start time.Time) (time.Duration, error) {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 20*time.Second {
		resp, err := client.Get("http://" + addr + "/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(start), nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	return 0, fmt.Errorf("no 200 on /health within 20s")
}

// startServe execs the server on a free loopback port and waits for the
// first 200 on /health. The returned duration is exec → that response.
func startServe(bin, dataDir string) (*serveProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	p := &serveProc{addr: addr}
	p.cmd = exec.Command(bin, serveArgs(addr, dataDir)...)
	p.cmd.SysProcAttr = dieWithParent
	p.cmd.Stderr = &p.logs
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, err
	}
	took, err := awaitHealthy(addr, start)
	if err != nil {
		p.kill()
		return nil, 0, fmt.Errorf("server never became healthy:\n%s", p.logs.String())
	}
	return p, took, nil
}

// kill ends the server at once (SIGKILL) and reaps it.
func (p *serveProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// terminate asks for a graceful shutdown and reaps the process, falling back
// to kill if it does not exit in time.
func (p *serveProc) terminate() {
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux the Go runtime supports.
const clockTick = 10 * time.Millisecond

// cpu returns the server's cumulative user+system CPU time.
func (p *serveProc) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the line, so the 12th and 13th after ") ".
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line: %q", data)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line: %q", data)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the server's resident-set high-water mark (VmHWM).
func (p *serveProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
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

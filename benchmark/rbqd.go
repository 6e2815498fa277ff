package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rbq/internal/server"
)

// buildRbqd compiles the program under test into dir, from the source
// tree the benchmark itself was built from.
func buildRbqd(root, dir string) (string, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(dir, "rbqd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rbqd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/rbqd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one running rbqd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the process has been waited for
	err    error         // Wait's result, valid after exited
}

// startDaemon launches rbqd with the benchmark's fixed flags plus args
// and waits until /healthz answers. stderr is appended to stderrPath.
func startDaemon(bin string, args []string, accessLog, stderrPath string) (*daemon, error) {
	errFile, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	full := append([]string{"-listen", "127.0.0.1:0", "-access-log", accessLog}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stderr = errFile
	// rbqd must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Drain stdout to EOF before Wait, as os/exec requires.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "rbqd: listening on "); ok {
				addrCh <- rest
			}
		}
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-addrCh:
	case <-d.exited:
		return nil, fmt.Errorf("rbqd exited before listening: %v (see %s)", d.err, stderrPath)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("rbqd did not listen within 60s")
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := http.Get("http://" + d.addr + server.RouteHealth)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("rbqd /healthz not OK within 10s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop asks for a graceful shutdown and waits for the exit.
func (d *daemon) stop() error {
	if !d.alive() {
		return d.err
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("rbqd ignored SIGTERM for 30s; killed")
	}
}

// kill is the crash: SIGKILL, no drain, no final fsync.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) stats() (server.StatsResponse, error) {
	var st server.StatsResponse
	resp, err := http.Get("http://" + d.addr + server.RouteStats)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s: HTTP %d", server.RouteStats, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime.
// It is 100 on every Linux port Go runs on (the runtime assumes so too).
const clockTick = 100

// cpuSeconds returns utime+stime of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces and parentheses; fields are
	// counted from the last ')'. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB returns VmHWM of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPUSeconds is the generator's own user+system time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

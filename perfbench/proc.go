package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startTimeout bounds how long a flockd start may take before the run
// fails rather than hangs.
const startTimeout = 60 * time.Second

// flockd is one running flockd process.
type flockd struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *bytes.Buffer
	done   chan struct{} // closed once Wait has returned
}

// startFlockd launches the binary with args plus a free loopback port and
// returns once /healthz answers 200, together with the time that took
// from launch.
func startFlockd(bin string, args []string) (*flockd, time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", "127.0.0.1:0")...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting flockd: %w", err)
	}
	f := &flockd{cmd: cmd, stderr: &bytes.Buffer{}, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			f.stderr.WriteString(line + "\n")
			if rest, ok := strings.CutPrefix(line, "flockd: listening on "); ok && !sent {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
		io.Copy(io.Discard, pipe)
		cmd.Wait()
		close(f.done)
	}()
	var addr string
	select {
	case a, ok := <-addrc:
		if !ok {
			<-f.done
			return nil, 0, fmt.Errorf("flockd exited before listening: %s", f.stderr.String())
		}
		addr = a
	case <-time.After(startTimeout):
		f.kill()
		return nil, 0, fmt.Errorf("flockd did not announce an address within %v", startTimeout)
	}
	f.base = "http://" + addr
	for {
		resp, err := http.Get(f.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return f, time.Since(t0), nil
			}
		}
		if time.Since(t0) > startTimeout {
			f.kill()
			return nil, 0, fmt.Errorf("flockd /healthz not ready within %v", startTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the process and waits until it has exited.
func (f *flockd) kill() {
	f.cmd.Process.Signal(syscall.SIGKILL)
	<-f.done
}

// peakRSSMiB reads VmHWM, the resident-set high-water mark, of the
// running process.
func (f *flockd) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", f.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", f.cmd.Process.Pid)
}

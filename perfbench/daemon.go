package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one predictd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	pid  int
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	liveMu sync.Mutex
	live   = map[*daemon]bool{}
)

// killAll stops every daemon still running; main calls it on every exit
// path, signals included.
func killAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

var listenRe = regexp.MustCompile(` on (\S+) \(tick`)

// startDaemon runs predictd with args on an ephemeral loopback port and
// returns once it has announced its address.
func startDaemon(bin string, gomaxprocs int, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-tick", "0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start predictd: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, done: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
			d.mu.Lock()
			d.tail = append(d.tail, line)
			if len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-addrc:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("predictd exited before listening: %v: %s", d.err, d.stderrTail())
	case <-time.After(120 * time.Second):
		d.stop()
		return nil, errors.New("predictd did not announce its address within 120s")
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

// stop interrupts the daemon (a graceful shutdown), kills it if it has not
// exited within ten seconds, and waits for it.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
}

// exited reports whether the daemon has stopped on its own.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// cpuTime returns the process's user+system CPU time so far, summed over
// its threads' /proc/<pid>/task/<tid>/schedstat run times. They count in
// nanoseconds, where /proc/<pid>/stat counts 10 ms ticks: a one-second
// window of a lightly loaded daemon is only a few dozen ticks.
func cpuTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited
		}
		if err != nil {
			return 0, err
		}
		run, _, _ := strings.Cut(string(b), " ")
		ns, err := strconv.ParseInt(run, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s schedstat: %w", t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// terminate is installed as the signal handler's action.
func terminate(sig os.Signal) {
	killAll()
	code := 1
	if s, ok := sig.(syscall.Signal); ok {
		code = 128 + int(s)
	}
	os.Exit(code)
}

// stealTime returns the CPU time the hypervisor has taken from this
// machine's virtual CPUs, summed over them (the steal column of /proc/stat).
func stealTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, errors.New("malformed /proc/stat")
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond, err
}

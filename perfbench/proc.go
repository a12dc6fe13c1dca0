package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// ctlTimeout bounds every reply the load generator waits for from the
// server process, so a wedged server ends the run instead of hanging it.
const ctlTimeout = 15 * time.Second

// readyInfo is the server process's first line: where it listens and
// how it is configured.
type readyInfo struct {
	Addr       string
	Groups     int
	Workers    int
	Sharded    bool
	Gomaxprocs int
}

// serverHandle is the load generator's end of one server process.
type serverHandle struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // the server's stdout, line by line; closed at EOF
	info  readyInfo
}

// spawnServer starts this executable as the workload's server process
// at GOMAXPROCS serverWorkers and waits for its ready line. The server
// exits when its stdin closes, so it ends with the load generator.
func spawnServer(w spec, seed int64, trace bool) (*serverHandle, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate executable: %w", err)
	}
	args := []string{"server", "-workload", w.name, "-seed", strconv.FormatInt(seed, 10)}
	if trace {
		args = append(args, "-trace")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverWorkers))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server process: %w", err)
	}
	h := &serverHandle{cmd: cmd, stdin: stdin, lines: make(chan string, 1)}
	go func() {
		defer close(h.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			h.lines <- sc.Text()
		}
	}()
	line, err := h.next()
	if err == nil {
		err = json.Unmarshal([]byte(line), &h.info)
	}
	if err != nil {
		h.stop()
		return nil, fmt.Errorf("server process not ready: %w", err)
	}
	return h, nil
}

// next returns the server's next stdout line.
func (h *serverHandle) next() (string, error) {
	t := time.NewTimer(ctlTimeout)
	defer t.Stop()
	select {
	case l, ok := <-h.lines:
		if !ok {
			return "", errors.New("server process exited")
		}
		return l, nil
	case <-t.C:
		return "", errors.New("server process did not answer")
	}
}

// call sends one control command and decodes its one-line reply into v.
func (h *serverHandle) call(cmd string, v any) error {
	if _, err := fmt.Fprintln(h.stdin, cmd); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	line, err := h.next()
	if err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	if err := json.Unmarshal([]byte(line), v); err != nil {
		return fmt.Errorf("%s: %w", cmd, err)
	}
	return nil
}

// spans fetches the spans the server process recorded.
func (h *serverHandle) spans() (spans []span, dropped int, err error) {
	if err := h.call("spans", &dropped); err != nil {
		return nil, 0, err
	}
	spans, err = readSpans(h.next)
	return spans, dropped, err
}

// stop asks the server process to shut down, kills it if it has not
// exited within a few seconds, and waits for it.
func (h *serverHandle) stop() {
	fmt.Fprintln(h.stdin, "quit")
	h.stdin.Close()
	done := make(chan struct{})
	go func() {
		for range h.lines {
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		h.cmd.Process.Kill()
	}
	h.cmd.Wait()
	<-done
}

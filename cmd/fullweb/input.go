package main

import (
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// logInput is the stream command's input: its -log segments read back
// to back. It implements weblog.Interrupter, so a run that stops early
// (a strict-mode reject, a fold fault, a failed checkpoint write) does
// not wait for a quiet pipe before it returns: Interrupt expires the
// read deadline of every segment file, which wakes a Read parked on a
// pipe, FIFO or terminal the runtime poller serves.
type logInput struct {
	io.Reader
	files []*os.File
}

// Interrupt implements weblog.Interrupter.
func (in *logInput) Interrupt() {
	for _, f := range in.files {
		// A file the poller does not serve takes no deadline; reads of
		// a regular file never wait for input.
		_ = f.SetReadDeadline(time.Now())
	}
}

// pollableStdin returns stdin as a file a read deadline can interrupt,
// and a closer for it, or nil when it is stdin itself. An inherited
// stdin is in blocking mode, which the poller cannot serve, so a pipe
// on stdin is opened anew through /dev/fd, non-blocking: on Linux that
// is a new description of the same pipe, and the shell's is left as it
// is. Where that fails, and for any other stdin (a regular file, a
// terminal, a socket), stdin is returned as is; a run that stops early
// then waits for its next bytes or its end.
func pollableStdin() (*os.File, io.Closer) {
	fi, err := os.Stdin.Stat()
	if err != nil || fi.Mode()&os.ModeNamedPipe == 0 {
		return os.Stdin, nil
	}
	rc, err := os.Stdin.SyscallConn()
	if err != nil {
		return os.Stdin, nil
	}
	var path string
	if rc.Control(func(fd uintptr) { path = fmt.Sprintf("/dev/fd/%d", fd) }) != nil {
		return os.Stdin, nil
	}
	// Non-blocking, the open does not wait for a writer either.
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return os.Stdin, nil
	}
	return f, f
}

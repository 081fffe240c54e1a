package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro"
	"repro/internal/serve"
)

// The HTTP client side shared by the serve-mixed workload and the serve.*
// rungs.

// serveStore puts internal/serve in front of st on a loopback listener. It
// returns the backups URL prefix and a stop function that drains the
// server; the caller still owns st.
func serveStore(ctx context.Context, st *repro.Store) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := serve.New(serve.Config{Store: st, RestoreVerify: true})
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop = func() error {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		err := errors.Join(hs.Shutdown(sctx), srv.Shutdown(sctx))
		<-served // http.ErrServerClosed once Shutdown has been called
		return err
	}
	return "http://" + ln.Addr().String() + "/v1/backups/", stop, nil
}

// post uploads data as backup label and requires 201 Created.
func post(client *http.Client, base, label string, data []byte) (status int, err error) {
	resp, err := client.Post(base+label, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // the status decides; draining lets the connection be reused
	if resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, fmt.Errorf("POST %s: status %d", label, resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// get restores backup label into out and returns the bytes received.
func get(client *http.Client, base, label string, out []byte) (int, error) {
	resp, err := client.Get(base + label + "/restore")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: status %d", label, resp.StatusCode)
	}
	w := &sliceWriter{buf: out}
	_, err = io.Copy(w, resp.Body)
	return w.n, err
}

//go:build !linux

package main

import "time"

// waker falls back to time.Sleep where there is no timerfd; generator
// lateness then includes the runtime's timer granularity.
type waker struct{}

func newWaker() (*waker, error) { return &waker{}, nil }

func (w *waker) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (w *waker) close() error { return nil }

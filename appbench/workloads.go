package main

import (
	"image/color"
	"math/rand"

	"appshare/internal/display"
	"appshare/internal/region"
	"appshare/internal/workload"
)

// spec describes one workload: its viewers, their paths and the desktop
// activity generated from the seed. Every viewer is driven from this one
// process; ticks are due on a fixed schedule whatever the host's speed
// (open loop).
type spec struct {
	name       string
	transport  string // "in-process" or "loopback-udp"
	fps        int
	procs      int     // GOMAXPROCS the workload runs at (see README)
	retransLog int     // per-viewer retransmission log; retransmissions are always on
	sinks      int     // in-process sink viewers on the host
	edgeSinks  int     // in-process sink viewers on the relay
	witnesses  int     // Participants checked and timed; the first clicks
	udp        bool    // witnesses over loopback UDP instead of Pipes
	loss       float64 // seeded drop share on every in-process path
	churn      float64 // share of sink viewers replaced per second
	content    func(seed int64) (*display.Desktop, func(), buttonSpot)
}

var specs = []*spec{
	{
		// The per-viewer send path and the retransmission log do almost
		// all the work; encode is tiny.
		name: "fanout-typing", transport: "in-process", fps: 20, procs: 1,
		retransLog: 64, sinks: 4000, witnesses: 1, content: typingContent,
	},
	{
		// Capture, codec and participant decode dominate; the only
		// workload that crosses the kernel or carries HIP from a remote
		// socket. Two processors, so the witnesses' decodes and the
		// collector do not run inside the host's ticks.
		name: "presenter-udp", transport: "loopback-udp", fps: 10, procs: 2,
		witnesses: 2, udp: true, content: presenterContent,
	},
	{
		// The fan-out layer does resend, refresh and feedback work, and
		// the relay tier runs.
		name: "relay-churn-loss", transport: "in-process", fps: 20, procs: 1,
		retransLog: 256, sinks: 500, edgeSinks: 1500, witnesses: 2, loss: 0.03, churn: 0.05,
		content: relayContent,
	},
}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// typingContent: a 512×384 editor receiving 12 characters per tick.
func typingContent(seed int64) (*display.Desktop, func(), buttonSpot) {
	desk := display.NewDesktop(800, 480)
	win := desk.CreateWindow(1, region.XYWH(0, 0, 512, 384))
	win.Clear(white)
	btn := buttonWindow(desk, 560, 20)
	typing := workload.NewTyping(win, 12, seed)
	return desk, typing.Step, btn
}

// presenterContent: a 1024×768 window with typing and a photographic video
// region every tick, a five-tick scroll burst every 200 ticks and a slide
// change (a 512×384 photograph) every 50 ticks. Slide changes and scroll
// bursts together stay under 5% of ticks and most 50-tick sub-windows
// hold only a slide change, so the 95th percentiles fall in the steady
// population rather than on the heavy ticks.
func presenterContent(seed int64) (*display.Desktop, func(), buttonSpot) {
	desk := display.NewDesktop(1280, 800)
	win := desk.CreateWindow(1, region.XYWH(0, 0, 1024, 768))
	win.Clear(white)
	btn := buttonWindow(desk, 1060, 20)
	rng := rand.New(rand.NewSource(seed))
	scroll := workload.NewScrolling(win, 2, seed+1)
	typing := workload.NewTyping(win, 12, seed+2)
	video := workload.NewVideoRegion(win, region.XYWH(640, 420, 320, 240), seed+3)
	k := 0
	return desk, func() {
		if k%50 == 0 {
			win.Blit(workload.Photo(512, 384, rng.Int63()), 40, 40)
		}
		if k%200 >= 100 && k%200 < 105 {
			scroll.Step()
		}
		typing.Step()
		video.Step()
		k++
	}, btn
}

// relayContent: a typing editor, a document scrolling a line every fourth
// tick and a static photograph that makes every refresh a train of
// datagrams long enough that nearly every join needs repair. The windows
// are small so that per-joiner refresh encodes do not dominate the tick.
func relayContent(seed int64) (*display.Desktop, func(), buttonSpot) {
	desk := display.NewDesktop(800, 480)
	edit := desk.CreateWindow(1, region.XYWH(0, 0, 256, 192))
	edit.Clear(white)
	doc := desk.CreateWindow(1, region.XYWH(270, 0, 256, 192))
	doc.Clear(white)
	photo := desk.CreateWindow(1, region.XYWH(0, 210, 128, 128))
	photo.Blit(workload.Photo(128, 128, seed), 0, 0)
	btn := buttonWindow(desk, 300, 220)
	typing := workload.NewTyping(edit, 12, seed+1)
	scroll := workload.NewScrolling(doc, 1, seed+2)
	k := 0
	return desk, func() {
		typing.Step()
		if k%4 == 0 {
			scroll.Step()
		}
		k++
	}, btn
}

var white = color.RGBA{0xFF, 0xFF, 0xFF, 0xFF}

package env

import (
	"math"
	"math/rand"

	"dronerl/internal/geom"
	"dronerl/internal/tensor"
)

// DepthCamera models the drone's forward-looking stereo pair as a planar
// depth scanner: Rays evenly spaced across the horizontal field of view,
// each returning the distance to the first surface, clamped to MaxRange.
type DepthCamera struct {
	// FOVDeg is the full horizontal field of view in degrees.
	FOVDeg float64
	// Rays is the number of depth samples across the FOV.
	Rays int
	// MaxRange is the far clip distance in metres.
	MaxRange float64
	// CenterFrac is the fraction of central rays used for the reward
	// window (the paper's "smaller window in the center").
	CenterFrac float64
}

// DefaultIndoorCamera returns the camera used in indoor worlds.
func DefaultIndoorCamera() DepthCamera {
	return DepthCamera{FOVDeg: 90, Rays: 64, MaxRange: 10, CenterFrac: 0.3}
}

// DefaultOutdoorCamera returns the camera used in outdoor worlds, with a
// longer range matching the larger obstacle spacing.
func DefaultOutdoorCamera() DepthCamera {
	return DepthCamera{FOVDeg: 90, Rays: 64, MaxRange: 40, CenterFrac: 0.3}
}

// Scan renders the depth profile seen from the pose.
func (c DepthCamera) Scan(w *World, pose Pose) []float64 {
	out := make([]float64, c.Rays)
	fov := geom.Deg(c.FOVDeg)
	for i := 0; i < c.Rays; i++ {
		frac := 0.5
		if c.Rays > 1 {
			frac = float64(i) / float64(c.Rays-1)
		}
		ang := pose.Heading - float64(fov/2) + float64(frac*fov)
		out[i] = w.RayDepth(geom.Ray{O: pose.Pos, D: geom.FromAngle(ang)})
	}
	return out
}

// CenterWindow returns the [lo, hi) index range of the central reward
// window for a scan of n samples.
func (c DepthCamera) CenterWindow(n int) (lo, hi int) {
	frac := c.CenterFrac
	if frac <= 0 || frac > 1 {
		frac = 0.3
	}
	w := int(math.Round(float64(n) * frac))
	if w < 1 {
		w = 1
	}
	lo = (n - w) / 2
	return lo, lo + w
}

// StereoModel converts true depth into the depth recovered from quantized,
// noisy stereo disparity: d = f*B/z is rounded to the pixel grid after
// additive matching noise, then inverted. Error therefore grows
// quadratically with distance, the characteristic artifact of the
// disparity-based depth maps the paper uses ("we used the disparity map
// from stereo camera to generate an approximate depth map").
type StereoModel struct {
	// FocalPx is the focal length in pixels.
	FocalPx float64
	// BaselineM is the stereo baseline in metres.
	BaselineM float64
	// NoisePx is the matching-noise standard deviation in pixels.
	NoisePx float64
}

// DefaultStereo returns a model typical of a small drone's stereo head
// (3 mm-class lenses, 12 cm baseline).
func DefaultStereo() *StereoModel {
	return &StereoModel{FocalPx: 320, BaselineM: 0.12, NoisePx: 0.25}
}

// Apply converts a true depth to a measured depth.
func (s *StereoModel) Apply(z, maxRange float64, rng *rand.Rand) float64 {
	if z <= 0 {
		return 0
	}
	fb := s.FocalPx * s.BaselineM
	d := fb/z + float64(rng.NormFloat64()*s.NoisePx)
	d = math.Round(d)
	if d < 1 {
		// Below one pixel of disparity the match fails: report far.
		return maxRange
	}
	zm := fb / d
	if zm > maxRange {
		zm = maxRange
	}
	return zm
}

// ImageSize is the square side of the CNN observation rendered from a scan.
const ImageSize = 32

// DepthImage renders a depth scan into the 2-D observation the CNN
// consumes: each image column corresponds to one viewing direction and is
// filled, around the horizon row, with a vertical extent inversely
// proportional to depth (nearby obstacles appear tall, as in a perspective
// camera) at an intensity equal to the normalized *proximity* 1 - z/max.
// Free directions stay dark. The result is a (1, ImageSize, ImageSize)
// tensor in [0, 1].
func DepthImage(depths []float64, maxRange float64) *tensor.Tensor {
	img := tensor.New(1, ImageSize, ImageSize)
	n := len(depths)
	if n == 0 {
		return img
	}
	d := img.Data()
	const apparentHeight = 6.0 // metres; scales the projected extent
	for x := 0; x < ImageSize; x++ {
		// Resample scan columns onto image columns.
		si := x * n / ImageSize
		z := depths[si]
		if z <= 0 {
			z = 1e-3
		}
		prox := 1 - z/maxRange
		if prox < 0 {
			prox = 0
		}
		// Projected half-height in rows.
		half := int(math.Round(apparentHeight / z * float64(ImageSize) / 8))
		if half > ImageSize/2 {
			half = ImageSize / 2
		}
		mid := ImageSize / 2
		for y := mid - half; y < mid+half; y++ {
			if y >= 0 && y < ImageSize {
				d[y*ImageSize+x] = float32(prox)
			}
		}
	}
	return img
}

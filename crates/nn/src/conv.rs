//! 2-D convolution and max-pooling layers.
//!
//! Activations stay in flat batch-major matrices; these layers interpret the
//! feature axis as a `channels × height × width` volume. Convolution uses
//! the im2col strategy: each sample is unfolded into a column matrix so the
//! convolution becomes a single GEMM, the same approach classical PyTorch CPU
//! kernels use.

use crate::layer::{ensure_shape, Layer};
use crate::zoo::InitRng;
use skiptrain_linalg::{gemm_at_b_into, gemm_into, Matrix};

/// Spatial geometry of a convolution / pooling input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape2d {
    /// Number of channels.
    pub channels: usize,
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
}

impl Shape2d {
    /// Creates a shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Flattened feature count.
    pub fn len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// True for degenerate (zero-sized) shapes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The `Copy` unfold geometry of a convolution, split out of [`Conv2d`] so
/// the im2col/col2im kernels can run against borrowed sample slices (rows of
/// the caller's batch) while the column scratch buffers are mutably
/// borrowed from the layer — no per-sample copies.
#[derive(Debug, Clone, Copy)]
struct ConvGeom {
    input: Shape2d,
    kernel: usize,
    stride: usize,
    padding: usize,
    out_h: usize,
    out_w: usize,
}

impl ConvGeom {
    #[inline]
    fn out_len(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Unfolds one sample (`in_c·h·w` flat) into `cols`
    /// (`ckk × out_h·out_w`, row-major).
    fn im2col(&self, sample: &[f32], cols: &mut [f32]) {
        let (h, w) = (self.input.height, self.input.width);
        let l = self.out_len();
        cols.fill(0.0);
        let mut row = 0usize;
        for c in 0..self.input.channels {
            let plane = &sample[c * h * w..(c + 1) * h * w];
            for ky in 0..self.kernel {
                for kx in 0..self.kernel {
                    let dst = &mut cols[row * l..(row + 1) * l];
                    let mut idx = 0usize;
                    for oy in 0..self.out_h {
                        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            idx += self.out_w;
                            continue;
                        }
                        let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                        for ox in 0..self.out_w {
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            if ix >= 0 && ix < w as isize {
                                dst[idx] = src_row[ix as usize];
                            }
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }

    /// Scatter-adds `dcols` back into one sample gradient.
    fn col2im(&self, dcols: &[f32], grad_sample: &mut [f32]) {
        let (h, w) = (self.input.height, self.input.width);
        let l = self.out_len();
        let mut row = 0usize;
        for c in 0..self.input.channels {
            let plane_base = c * h * w;
            for ky in 0..self.kernel {
                for kx in 0..self.kernel {
                    let src = &dcols[row * l..(row + 1) * l];
                    let mut idx = 0usize;
                    for oy in 0..self.out_h {
                        let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                        if iy < 0 || iy >= h as isize {
                            idx += self.out_w;
                            continue;
                        }
                        let row_base = plane_base + iy as usize * w;
                        for ox in 0..self.out_w {
                            let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                            if ix >= 0 && ix < w as isize {
                                grad_sample[row_base + ix as usize] += src[idx];
                            }
                            idx += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

/// 2-D convolution with square kernels.
///
/// Parameters are packed as `[W (out_c × in_c·k·k) | b (out_c)]`, one span
/// of the model's flat parameter vector; the layer owns only its unfold
/// scratch.
pub struct Conv2d {
    geom: ConvGeom,
    out_channels: usize,
    /// Workhorse im2col buffer: `in_c·k·k × out_h·out_w`.
    cols: Vec<f32>,
    /// Workhorse column-gradient buffer, same shape as `cols`.
    dcols: Vec<f32>,
    /// Workhorse per-sample dW accumulator.
    dw_tmp: Vec<f32>,
}

impl Conv2d {
    /// Creates a convolution layer; [`Layer::init_params`] draws He-uniform
    /// weights and leaves the bias zero.
    ///
    /// # Panics
    /// Panics if the geometry does not produce at least a 1×1 output.
    pub fn new(
        input: Shape2d,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        assert!(
            kernel >= 1 && stride >= 1,
            "conv2d: degenerate kernel/stride"
        );
        assert!(
            input.height + 2 * padding >= kernel && input.width + 2 * padding >= kernel,
            "conv2d: kernel larger than padded input"
        );
        let out_h = (input.height + 2 * padding - kernel) / stride + 1;
        let out_w = (input.width + 2 * padding - kernel) / stride + 1;
        let ckk = input.channels * kernel * kernel;
        Self {
            geom: ConvGeom {
                input,
                kernel,
                stride,
                padding,
                out_h,
                out_w,
            },
            out_channels,
            cols: vec![0.0f32; ckk * out_h * out_w],
            dcols: vec![0.0f32; ckk * out_h * out_w],
            dw_tmp: vec![0.0f32; out_channels * ckk],
        }
    }

    /// Output spatial shape.
    pub fn output_shape(&self) -> Shape2d {
        Shape2d::new(self.out_channels, self.geom.out_h, self.geom.out_w)
    }

    #[inline]
    fn ckk(&self) -> usize {
        let g = &self.geom;
        g.input.channels * g.kernel * g.kernel
    }

    #[inline]
    fn out_len(&self) -> usize {
        self.geom.out_len()
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn input_dim(&self) -> usize {
        self.geom.input.len()
    }

    fn output_dim(&self) -> usize {
        self.out_channels * self.out_len()
    }

    fn param_count(&self) -> usize {
        self.out_channels * self.ckk() + self.out_channels
    }

    fn init_params(&self, params: &mut [f32], init: &mut InitRng) {
        let ckk = self.ckk();
        init.he_uniform(&mut params[..self.out_channels * ckk], ckk);
    }

    fn forward(&mut self, params: &[f32], input: &Matrix, output: &mut Matrix, _train: bool) {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "conv2d forward: input dim mismatch"
        );
        ensure_shape(output, batch, self.output_dim());

        let geom = self.geom;
        let in_dim = self.input_dim();
        let ckk = self.ckk();
        let l = self.out_len();
        let (w, bias) = params.split_at(self.out_channels * ckk);
        for s in 0..batch {
            // unfold straight out of the caller's batch row — no copy
            geom.im2col(
                &input.as_slice()[s * in_dim..(s + 1) * in_dim],
                &mut self.cols,
            );
            let out_row = output.row_mut(s);
            // out (out_c × L) = W (out_c × ckk) · cols (ckk × L)
            gemm_into(self.out_channels, ckk, l, w, &self.cols, out_row);
            for oc in 0..self.out_channels {
                let b = bias[oc];
                for v in &mut out_row[oc * l..(oc + 1) * l] {
                    *v += b;
                }
            }
        }
    }

    fn backward(
        &mut self,
        params: &[f32],
        grads: &mut [f32],
        input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        mut grad_in: Option<&mut Matrix>,
    ) {
        let batch = grad_out.rows();
        assert_eq!(
            grad_out.cols(),
            self.output_dim(),
            "conv2d backward: grad dim mismatch"
        );
        assert_eq!(
            input.shape(),
            (batch, self.input_dim()),
            "conv2d backward: input is not the forward input of this batch"
        );
        if let Some(grad_in) = grad_in.as_deref_mut() {
            ensure_shape(grad_in, batch, self.input_dim());
            grad_in.fill_zero();
        }

        let geom = self.geom;
        let ckk = self.ckk();
        let l = self.out_len();
        let wlen = self.out_channels * ckk;
        for s in 0..batch {
            // recompute the unfold from the forward input, sliced in place
            // (memory-cheap backward, no per-sample copy)
            geom.im2col(input.row(s), &mut self.cols);
            let dy = grad_out.row(s);

            // dW += dY · colsᵀ : A=dY (out_c×L), B=cols (ckk×L) → A·Bᵀ (out_c×ckk)
            skiptrain_linalg::gemm_a_bt_into(
                self.out_channels,
                l,
                ckk,
                dy,
                &self.cols,
                &mut self.dw_tmp,
            );
            for (g, d) in grads[..wlen].iter_mut().zip(&self.dw_tmp) {
                *g += d;
            }
            // db += row sums of dY
            for oc in 0..self.out_channels {
                let sum: f32 = dy[oc * l..(oc + 1) * l].iter().sum();
                grads[wlen + oc] += sum;
            }
            // dX, only when a layer below reads it.
            // dcols = Wᵀ · dY : accumulate kernel needs zeroed target
            if let Some(grad_in) = grad_in.as_deref_mut() {
                self.dcols.fill(0.0);
                gemm_at_b_into(
                    ckk,
                    self.out_channels,
                    l,
                    &params[..wlen],
                    dy,
                    &mut self.dcols,
                );
                geom.col2im(&self.dcols, grad_in.row_mut(s));
            }
        }
    }
}

/// Max pooling with square window and stride equal to the window size.
pub struct MaxPool2d {
    input: Shape2d,
    window: usize,
    out_h: usize,
    out_w: usize,
    /// Per-output argmax (linear index into the input sample), batch-major.
    cached_argmax: Vec<u32>,
}

impl MaxPool2d {
    /// Creates a pooling layer with `window × window` non-overlapping windows.
    ///
    /// # Panics
    /// Panics if the input is smaller than the window.
    pub fn new(input: Shape2d, window: usize) -> Self {
        assert!(window >= 1, "maxpool: degenerate window");
        assert!(
            input.height >= window && input.width >= window,
            "maxpool: window larger than input"
        );
        let out_h = input.height / window;
        let out_w = input.width / window;
        Self {
            input,
            window,
            out_h,
            out_w,
            cached_argmax: Vec::new(),
        }
    }

    /// Output spatial shape.
    pub fn output_shape(&self) -> Shape2d {
        Shape2d::new(self.input.channels, self.out_h, self.out_w)
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn input_dim(&self) -> usize {
        self.input.len()
    }

    fn output_dim(&self) -> usize {
        self.input.channels * self.out_h * self.out_w
    }

    fn forward(&mut self, _params: &[f32], input: &Matrix, output: &mut Matrix, train: bool) {
        let batch = input.rows();
        assert_eq!(
            input.cols(),
            self.input_dim(),
            "maxpool forward: input dim mismatch"
        );
        ensure_shape(output, batch, self.output_dim());
        if train {
            self.cached_argmax.clear();
            self.cached_argmax.reserve(batch * self.output_dim());
        }

        let (h, w) = (self.input.height, self.input.width);
        for s in 0..batch {
            let sample = input.row(s);
            let out_row = output.row_mut(s);
            let mut o = 0usize;
            for c in 0..self.input.channels {
                let plane_base = c * h * w;
                for oy in 0..self.out_h {
                    for ox in 0..self.out_w {
                        // seeded from the window's own first element, so an
                        // all-NaN or all-−∞ window keeps its value and routes
                        // its gradient inside the window
                        let mut best_idx = plane_base + oy * self.window * w + ox * self.window;
                        let mut best = sample[best_idx];
                        for wy in 0..self.window {
                            let iy = oy * self.window + wy;
                            let base = plane_base + iy * w + ox * self.window;
                            for wx in 0..self.window {
                                let v = sample[base + wx];
                                if v > best {
                                    best = v;
                                    best_idx = base + wx;
                                }
                            }
                        }
                        out_row[o] = best;
                        if train {
                            self.cached_argmax.push(best_idx as u32);
                        }
                        o += 1;
                    }
                }
            }
        }
    }

    fn backward(
        &mut self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Matrix,
        _output: &Matrix,
        grad_out: &Matrix,
        grad_in: Option<&mut Matrix>,
    ) {
        let Some(grad_in) = grad_in else { return };
        let batch = grad_out.rows();
        assert_eq!(
            self.cached_argmax.len(),
            batch * self.output_dim(),
            "maxpool backward: no cached forward for this batch"
        );
        ensure_shape(grad_in, batch, self.input_dim());
        grad_in.fill_zero();
        let od = self.output_dim();
        for s in 0..batch {
            let go = grad_out.row(s);
            let gi = grad_in.row_mut(s);
            let args = &self.cached_argmax[s * od..(s + 1) * od];
            for (o, &idx) in args.iter().enumerate() {
                gi[idx as usize] += go[o];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed's initial parameters of `c` — the storage a model would
    /// lend it.
    fn init_params(c: &Conv2d, seed: u64) -> Vec<f32> {
        let mut params = vec![0.0; c.param_count()];
        c.init_params(&mut params, &mut InitRng::new(seed));
        params
    }

    #[test]
    fn conv_output_geometry() {
        let c = Conv2d::new(Shape2d::new(3, 32, 32), 16, 5, 1, 2);
        assert_eq!(c.output_shape(), Shape2d::new(16, 32, 32));
        assert_eq!(c.param_count(), 16 * 3 * 25 + 16);
    }

    #[test]
    fn conv_identity_kernel_passthrough() {
        // 1x1 kernel, single channel, weight 1, bias 0 → identity map.
        let mut c = Conv2d::new(Shape2d::new(1, 3, 3), 1, 1, 1, 0);
        let mut params = init_params(&c, 2);
        params[0] = 1.0;
        params[1] = 0.0;
        let x = Matrix::from_fn(1, 9, |_, i| i as f32);
        let mut y = Matrix::zeros(0, 0);
        c.forward(&params, &x, &mut y, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        // 3x3 all-ones kernel, no padding, on a 3x3 input sums the input.
        let mut c = Conv2d::new(Shape2d::new(1, 3, 3), 1, 3, 1, 0);
        let mut params = init_params(&c, 3);
        for w in params[..9].iter_mut() {
            *w = 1.0;
        }
        params[9] = 0.5; // bias
        let x = Matrix::from_fn(1, 9, |_, i| (i + 1) as f32);
        let mut y = Matrix::zeros(0, 0);
        c.forward(&params, &x, &mut y, false);
        assert_eq!(y.shape(), (1, 1));
        assert!((y.row(0)[0] - 45.5).abs() < 1e-5);
    }

    #[test]
    fn conv_padding_zero_extends() {
        // 3x3 ones kernel with padding 1 on a 1x1 input: output = input value.
        let mut c = Conv2d::new(Shape2d::new(1, 1, 1), 1, 3, 1, 1);
        let mut params = init_params(&c, 4);
        for w in params[..9].iter_mut() {
            *w = 1.0;
        }
        params[9] = 0.0;
        let x = Matrix::from_vec(1, 1, vec![7.0]);
        let mut y = Matrix::zeros(0, 0);
        c.forward(&params, &x, &mut y, false);
        assert_eq!(y.as_slice(), &[7.0]);
    }

    #[test]
    fn maxpool_picks_window_maxima() {
        let p_in = Shape2d::new(1, 4, 4);
        let mut p = MaxPool2d::new(p_in, 2);
        let x = Matrix::from_fn(1, 16, |_, i| i as f32);
        let mut y = Matrix::zeros(0, 0);
        p.forward(&[], &x, &mut y, false);
        assert_eq!(y.as_slice(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut p = MaxPool2d::new(Shape2d::new(1, 2, 2), 2);
        let x = Matrix::from_vec(1, 4, vec![1.0, 9.0, 3.0, 2.0]);
        let mut y = Matrix::zeros(0, 0);
        p.forward(&[], &x, &mut y, true);
        let g = Matrix::from_vec(1, 1, vec![4.0]);
        let mut gi = Matrix::zeros(0, 0);
        p.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        assert_eq!(gi.as_slice(), &[0.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_window_without_a_maximum_keeps_its_nan_and_its_gradient() {
        // channel 1 is all NaN: no element compares greater than anything,
        // so the window's value and argmax are its own first element — not
        // −∞ and the sample's element 0 (channel 0, pixel (0,0))
        let mut p = MaxPool2d::new(Shape2d::new(2, 2, 2), 2);
        let nan = f32::NAN;
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, nan, nan, nan, nan]);
        let mut y = Matrix::zeros(0, 0);
        p.forward(&[], &x, &mut y, true);
        assert_eq!(y.row(0)[0], 4.0);
        assert!(y.row(0)[1].is_nan(), "NaN window must propagate");
        let g = Matrix::from_vec(1, 2, vec![10.0, 7.0]);
        let mut gi = Matrix::zeros(0, 0);
        p.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 10.0, 7.0, 0.0, 0.0, 0.0]);

        // same for a window of −∞ only
        let ninf = f32::NEG_INFINITY;
        let x = Matrix::from_vec(1, 8, vec![1.0, 2.0, 3.0, 4.0, ninf, ninf, ninf, ninf]);
        p.forward(&[], &x, &mut y, true);
        assert_eq!(y.as_slice(), &[4.0, ninf]);
        p.backward(&[], &mut [], &x, &y, &g, Some(&mut gi));
        assert_eq!(gi.as_slice(), &[0.0, 0.0, 0.0, 10.0, 7.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn conv_batch_matches_single_sample_runs() {
        let mut c = Conv2d::new(Shape2d::new(2, 5, 5), 3, 3, 1, 1);
        let params = init_params(&c, 5);
        let x = Matrix::from_fn(2, 50, |r, i| ((r * 50 + i) as f32).sin());
        let mut y_batch = Matrix::zeros(0, 0);
        c.forward(&params, &x, &mut y_batch, false);

        let x0 = Matrix::from_vec(1, 50, x.row(0).to_vec());
        let x1 = Matrix::from_vec(1, 50, x.row(1).to_vec());
        let mut y0 = Matrix::zeros(0, 0);
        let mut y1 = Matrix::zeros(0, 0);
        c.forward(&params, &x0, &mut y0, false);
        c.forward(&params, &x1, &mut y1, false);
        assert_eq!(y_batch.row(0), y0.row(0));
        assert_eq!(y_batch.row(1), y1.row(0));
    }
}

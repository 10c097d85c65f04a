//! Decorators over the library's public traits. Each one forwards every
//! call unchanged, bumps the exact counters, and opens a span while
//! tracing is on; none of them changes a bit of the program's output.

use std::ops::Range;
use std::time::Duration;

use rte_eda::shard::ShardReader;
use rte_fed::stream::RecordSource;
use rte_fed::{FedError, ModelFactory};
use rte_net::{Frame, NetError, Transport};
use rte_nn::{Layer, NnError, Param};
use rte_tensor::Tensor;

use crate::trace::{self, span};

/// Wraps every model `inner` builds in a [`TracedLayer`].
pub fn traced_factory(inner: ModelFactory) -> ModelFactory {
    Box::new(move |seed| {
        trace::MODELS_BUILT.add(1);
        let _span = span("nn.build");
        Box::new(TracedLayer { inner: inner(seed) })
    })
}

/// `rte-nn` boundary: times forward (split by the `training` flag),
/// backward, and parameter/buffer visits (state-dict copies, the
/// proximal term and optimizer updates all go through them).
struct TracedLayer {
    inner: Box<dyn Layer>,
}

impl Layer for TracedLayer {
    fn forward(&mut self, x: &Tensor, training: bool) -> Result<Tensor, NnError> {
        let batch = x.shape().dims().first().copied().unwrap_or(0) as u64;
        let _span = if training {
            trace::TRAIN_SAMPLES.add(batch);
            span("nn.train_fwd")
        } else {
            trace::EVAL_SAMPLES.add(batch);
            span("nn.eval_fwd")
        };
        self.inner.forward(x, training)
    }

    fn backward(&mut self, dy: &Tensor) -> Result<Tensor, NnError> {
        let _span = span("nn.train_bwd");
        self.inner.backward(dy)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Param)) {
        let _span = span("nn.state");
        self.inner.visit_params(prefix, f);
    }

    fn visit_buffers(&mut self, prefix: &str, f: &mut dyn FnMut(String, &mut Tensor)) {
        let _span = span("nn.state");
        self.inner.visit_buffers(prefix, f);
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn param_count(&mut self) -> usize {
        self.inner.param_count()
    }
}

/// `rte-net` boundary around one coordinator link: frames and encoded
/// bytes each way, and the time spent in send and receive. Over a
/// `LocalLink` the client answers inside `send`, so a send span's self
/// time is the codec, CRC and session handling around the client's
/// nested `nn` spans.
pub struct TracedLink<T> {
    /// The wrapped link.
    pub inner: T,
}

impl<T: Transport> TracedLink<T> {
    fn sent(frame: &Frame) {
        trace::FRAMES_SENT.add(1);
        trace::BYTES_SENT.add(frame.encoded_len() as u64);
    }

    fn received(frame: Result<Frame, NetError>) -> Result<Frame, NetError> {
        if let Ok(f) = &frame {
            trace::FRAMES_RECV.add(1);
            trace::BYTES_RECV.add(f.encoded_len() as u64);
        }
        frame
    }
}

impl<T: Transport> Transport for TracedLink<T> {
    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        let _span = span("net.send");
        self.inner.send(frame)?;
        Self::sent(frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, NetError> {
        let _span = span("net.recv");
        Self::received(self.inner.recv())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, NetError> {
        let _span = span("net.recv");
        Self::received(self.inner.recv_timeout(timeout))
    }

    fn send_timeout(&mut self, frame: &Frame, timeout: Duration) -> Result<(), NetError> {
        let _span = span("net.send");
        self.inner.send_timeout(frame, timeout)?;
        Self::sent(frame);
        Ok(())
    }
}

/// `rte-eda` read boundary: a [`RecordSource`] over one shard file that
/// counts and times every `read_into`.
pub struct TracedShard {
    reader: ShardReader,
}

impl TracedShard {
    /// Wraps an open shard.
    pub fn new(reader: ShardReader) -> Self {
        TracedShard { reader }
    }
}

impl RecordSource for TracedShard {
    fn len(&self) -> usize {
        self.reader.len()
    }

    fn geometry(&self) -> (usize, usize, usize) {
        self.reader.geometry()
    }

    fn read_into(
        &self,
        range: Range<usize>,
        features: &mut Vec<f32>,
        labels: &mut Vec<f32>,
    ) -> Result<(), FedError> {
        let _span = span("eda.read");
        trace::READ_CALLS.add(1);
        trace::READ_SAMPLES.add(range.len() as u64);
        self.reader
            .read_batch_into(range, features, labels)
            .map_err(|e| FedError::Stream {
                reason: e.to_string(),
            })
    }

    fn descriptor(&self) -> String {
        self.reader.path().display().to_string()
    }
}

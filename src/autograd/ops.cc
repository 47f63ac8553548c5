#include "autograd/ops.h"

#include <algorithm>
#include <cmath>

#include "autograd/meta.h"
#include "autograd/op_stream.h"
#include "obs/trace.h"
#include "tensor/vector_kernels.h"
#include "util/check.h"

namespace nmcdr {
namespace ag {

// Op-stream interception prologue (see autograd/op_stream.h): gives the
// active handler — the graph-program recorder/replayer — a chance to
// produce the result itself (fused kernel or deferred placeholder) before
// the eager body runs. A nullptr handler costs one TLS read.
#define NMCDR_OP_STREAM_ENTRY(kind, ...)                                     \
  if (OpStreamHandler* hdl = ActiveOpStream()) {                             \
    const Tensor* ins[] = {__VA_ARGS__};                                     \
    Tensor strm_out;                                                         \
    if (hdl->OnOpEntry(kind, ins, sizeof(ins) / sizeof(ins[0]), nullptr, 0,  \
                       &strm_out)) {                                         \
      return strm_out;                                                       \
    }                                                                        \
  }

// Same, for ops carrying one float attribute (Scale / AddScalar).
#define NMCDR_OP_STREAM_ENTRY_S(kind, scalar, ...)                          \
  if (OpStreamHandler* hdl = ActiveOpStream()) {                            \
    const Tensor* ins[] = {__VA_ARGS__};                                    \
    const float scl[] = {scalar};                                           \
    Tensor strm_out;                                                        \
    if (hdl->OnOpEntry(kind, ins, sizeof(ins) / sizeof(ins[0]), scl, 1,     \
                       &strm_out)) {                                        \
      return strm_out;                                                      \
    }                                                                       \
  }

namespace {

// Shorthand: the dense kernels live in ::nmcdr.
namespace k = ::nmcdr;

// Every op below opens with a meta branch: under a MetaModeGuard
// (autograd/meta.h) the call is interpreted abstractly — its shape rule
// validates the dimension contract and derives the output shape — and the
// kernel never runs. The branch must come before any eager NMCDR_CHECK so
// contract violations surface as catchable MetaErrors with provenance
// instead of aborting the verifier.

/// {count, min_id, max_id} attrs for gathered-id ops; max_id = -1 when
/// there are no ids.
MetaAttrs IdBoundsAttrs(const std::vector<int>& ids) {
  MetaAttrs attrs;
  attrs.ints = {static_cast<int64_t>(ids.size()), 0, -1};
  if (!ids.empty()) {
    const auto [lo, hi] = std::minmax_element(ids.begin(), ids.end());
    attrs.ints[1] = *lo;
    attrs.ints[2] = *hi;
  }
  return attrs;
}

/// Same for a list-of-lists argument: {num_lists, min_id, max_id}.
MetaAttrs ListBoundsAttrs(const std::vector<std::vector<int>>& lists) {
  MetaAttrs attrs;
  attrs.ints = {static_cast<int64_t>(lists.size()), 0, -1};
  bool any = false;
  for (const std::vector<int>& ids : lists) {
    for (const int id : ids) {
      if (!any) {
        attrs.ints[1] = id;
        attrs.ints[2] = id;
        any = true;
      } else {
        attrs.ints[1] = std::min<int64_t>(attrs.ints[1], id);
        attrs.ints[2] = std::max<int64_t>(attrs.ints[2], id);
      }
    }
  }
  return attrs;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("MatMul", {a, b});
  NMCDR_OBS_OP_SCOPE("MatMul");
  NMCDR_OP_STREAM_ENTRY(OpKind::kMatMul, &a, &b);
  Matrix out = k::MatMul(a.value(), b.value());
  return MakeOpNode("MatMul", std::move(out), {a, b}, [a, b](Node* self) {
    a.raw()->AccumulateGrad(k::MatMulTransB(self->grad, b.value()));
    b.raw()->AccumulateGrad(k::MatMulTransA(a.value(), self->grad));
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("Add", {a, b});
  NMCDR_OBS_OP_SCOPE("Add");
  NMCDR_OP_STREAM_ENTRY(OpKind::kAdd, &a, &b);
  return MakeOpNode("Add", k::Add(a.value(), b.value()), {a, b}, [a, b](Node* self) {
    a.raw()->AccumulateGrad(self->grad);
    b.raw()->AccumulateGrad(self->grad);
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("Sub", {a, b});
  NMCDR_OBS_OP_SCOPE("Sub");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSub, &a, &b);
  return MakeOpNode("Sub", k::Sub(a.value(), b.value()), {a, b}, [a, b](Node* self) {
    a.raw()->AccumulateGrad(self->grad);
    b.raw()->AccumulateGrad(k::Scale(self->grad, -1.f));
  });
}

Tensor Hadamard(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("Hadamard", {a, b});
  NMCDR_OBS_OP_SCOPE("Hadamard");
  NMCDR_OP_STREAM_ENTRY(OpKind::kHadamard, &a, &b);
  return MakeOpNode("Hadamard", k::Hadamard(a.value(), b.value()), {a, b},
                    [a, b](Node* self) {
                      a.raw()->AccumulateGrad(k::Hadamard(self->grad, b.value()));
                      b.raw()->AccumulateGrad(k::Hadamard(self->grad, a.value()));
                    });
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& bias) {
  if (MetaEnabled()) return MetaOp("AddRowBroadcast", {a, bias});
  NMCDR_OBS_OP_SCOPE("AddRowBroadcast");
  NMCDR_OP_STREAM_ENTRY(OpKind::kAddRowBroadcast, &a, &bias);
  return MakeOpNode("AddRowBroadcast", k::AddRowBroadcast(a.value(), bias.value()), {a, bias},
                    [a, bias](Node* self) {
                      a.raw()->AccumulateGrad(self->grad);
                      bias.raw()->AccumulateGrad(k::ColSum(self->grad));
                    });
}

Tensor Scale(const Tensor& a, float s) {
  if (MetaEnabled()) return MetaOp("Scale", {a});
  NMCDR_OBS_OP_SCOPE("Scale");
  NMCDR_OP_STREAM_ENTRY_S(OpKind::kScale, s, &a);
  return MakeOpNode("Scale", k::Scale(a.value(), s), {a}, [a, s](Node* self) {
    a.raw()->AccumulateGrad(k::Scale(self->grad, s));
  });
}

Tensor AddScalar(const Tensor& a, float s) {
  if (MetaEnabled()) return MetaOp("AddScalar", {a});
  NMCDR_OBS_OP_SCOPE("AddScalar");
  NMCDR_OP_STREAM_ENTRY_S(OpKind::kAddScalar, s, &a);
  return MakeOpNode("AddScalar", k::AddScalar(a.value(), s), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(self->grad);
  });
}

Tensor OneMinus(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("OneMinus", {a});
  NMCDR_OBS_OP_SCOPE("OneMinus");
  NMCDR_OP_STREAM_ENTRY(OpKind::kOneMinus, &a);
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  for (int i = 0; i < out.size(); ++i) out.data()[i] = 1.f - a.value().data()[i];
  return MakeOpNode("OneMinus", std::move(out), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(k::Scale(self->grad, -1.f));
  });
}

Tensor Exp(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Exp", {a});
  NMCDR_OBS_OP_SCOPE("Exp");
  NMCDR_OP_STREAM_ENTRY(OpKind::kExp, &a);
  return MakeOpNode("Exp", k::Exp(a.value()), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(k::Hadamard(self->grad, self->value));
  });
}

Tensor Relu(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Relu", {a});
  NMCDR_OBS_OP_SCOPE("Relu");
  NMCDR_OP_STREAM_ENTRY(OpKind::kRelu, &a);
  return MakeOpNode("Relu", k::Relu(a.value()), {a}, [a](Node* self) {
    Matrix da = Matrix::ForOverwrite(self->grad.rows(), self->grad.cols());
    for (int i = 0; i < da.size(); ++i) {
      da.data()[i] = self->value.data()[i] > 0.f ? self->grad.data()[i] : 0.f;
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor Sigmoid(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Sigmoid", {a});
  NMCDR_OBS_OP_SCOPE("Sigmoid");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSigmoid, &a);
  return MakeOpNode("Sigmoid", k::Sigmoid(a.value()), {a}, [a](Node* self) {
    Matrix da = Matrix::ForOverwrite(self->grad.rows(), self->grad.cols());
    for (int i = 0; i < da.size(); ++i) {
      const float y = self->value.data()[i];
      da.data()[i] = self->grad.data()[i] * y * (1.f - y);
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor Tanh(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Tanh", {a});
  NMCDR_OBS_OP_SCOPE("Tanh");
  NMCDR_OP_STREAM_ENTRY(OpKind::kTanh, &a);
  return MakeOpNode("Tanh", k::Tanh(a.value()), {a}, [a](Node* self) {
    Matrix da = Matrix::ForOverwrite(self->grad.rows(), self->grad.cols());
    for (int i = 0; i < da.size(); ++i) {
      const float y = self->value.data()[i];
      da.data()[i] = self->grad.data()[i] * (1.f - y * y);
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor Softplus(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Softplus", {a});
  NMCDR_OBS_OP_SCOPE("Softplus");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSoftplus, &a);
  return MakeOpNode("Softplus", k::Softplus(a.value()), {a}, [a](Node* self) {
    // d softplus(x)/dx = sigmoid(x)
    Matrix sig = k::Sigmoid(a.value());
    a.raw()->AccumulateGrad(k::Hadamard(self->grad, sig));
  });
}

Tensor SoftmaxRows(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("SoftmaxRows", {a});
  NMCDR_OBS_OP_SCOPE("SoftmaxRows");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSoftmaxRows, &a);
  return MakeOpNode("SoftmaxRows", k::SoftmaxRows(a.value()), {a}, [a](Node* self) {
    const Matrix& y = self->value;
    const Matrix& g = self->grad;
    Matrix da = Matrix::ForOverwrite(y.rows(), y.cols());
    for (int r = 0; r < y.rows(); ++r) {
      const float* yr = y.row(r);
      const float* gr = g.row(r);
      double dot = 0.0;
      for (int c = 0; c < y.cols(); ++c) dot += static_cast<double>(gr[c]) * yr[c];
      float* dr = da.row(r);
      for (int c = 0; c < y.cols(); ++c) {
        dr[c] = yr[c] * (gr[c] - static_cast<float>(dot));
      }
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("ConcatCols", {a, b});
  NMCDR_OBS_OP_SCOPE("ConcatCols");
  NMCDR_OP_STREAM_ENTRY(OpKind::kConcatCols, &a, &b);
  return MakeOpNode("ConcatCols",
      k::ConcatCols(a.value(), b.value()), {a, b}, [a, b](Node* self) {
        const int ca = a.cols(), cb = b.cols();
        Matrix da = Matrix::ForOverwrite(a.rows(), ca);
        Matrix db = Matrix::ForOverwrite(b.rows(), cb);
        for (int r = 0; r < self->grad.rows(); ++r) {
          const float* g = self->grad.row(r);
          float* dar = da.row(r);
          float* dbr = db.row(r);
          for (int c = 0; c < ca; ++c) dar[c] = g[c];
          for (int c = 0; c < cb; ++c) dbr[c] = g[ca + c];
        }
        a.raw()->AccumulateGrad(std::move(da));
        b.raw()->AccumulateGrad(std::move(db));
      });
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  if (MetaEnabled()) return MetaOp("SliceCols", {a}, {{start, len}});
  NMCDR_OBS_OP_SCOPE("SliceCols");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSliceCols, &a);
  NMCDR_CHECK_GE(start, 0);
  NMCDR_CHECK_GT(len, 0);
  NMCDR_CHECK_LE(start + len, a.cols());
  Matrix out = Matrix::ForOverwrite(a.rows(), len);
  for (int r = 0; r < a.rows(); ++r) {
    const float* src = a.value().row(r);
    float* dst = out.row(r);
    for (int c = 0; c < len; ++c) dst[c] = src[start + c];
  }
  return MakeOpNode("SliceCols", std::move(out), {a}, [a, start, len](Node* self) {
    Matrix da(a.rows(), a.cols());
    for (int r = 0; r < a.rows(); ++r) {
      const float* g = self->grad.row(r);
      float* dr = da.row(r);
      for (int c = 0; c < len; ++c) dr[start + c] = g[c];
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor Embedding(const Tensor& table, const std::vector<int>& ids) {
  if (MetaEnabled()) return MetaOp("Embedding", {table}, IdBoundsAttrs(ids));
  NMCDR_OBS_OP_SCOPE("Embedding");
  NMCDR_OP_STREAM_ENTRY(OpKind::kEmbedding, &table);
  return MakeOpNode("Embedding", k::GatherRows(table.value(), ids), {table},
                    [table, ids](Node* self) {
                      Matrix dt(table.rows(), table.cols());
                      k::ScatterAddRows(self->grad, ids, &dt);
                      table.raw()->AccumulateGrad(std::move(dt));
                    });
}

Tensor Transpose(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Transpose", {a});
  NMCDR_OBS_OP_SCOPE("Transpose");
  NMCDR_OP_STREAM_ENTRY(OpKind::kTranspose, &a);
  return MakeOpNode("Transpose", k::Transpose(a.value()), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(k::Transpose(self->grad));
  });
}

Tensor SegmentMeanRows(
    const Tensor& table,
    std::shared_ptr<const std::vector<std::vector<int>>> lists) {
  NMCDR_CHECK(lists != nullptr);
  if (MetaEnabled()) {
    return MetaOp("SegmentMeanRows", {table}, ListBoundsAttrs(*lists));
  }
  NMCDR_OBS_OP_SCOPE("SegmentMeanRows");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSegmentMeanRows, &table);
  const int n = static_cast<int>(lists->size());
  const int d = table.cols();
  Matrix out(n, d);
  for (int i = 0; i < n; ++i) {
    const std::vector<int>& ids = (*lists)[i];
    if (ids.empty()) continue;
    float* o = out.row(i);
    for (int id : ids) {
      NMCDR_CHECK_GE(id, 0);
      NMCDR_CHECK_LT(id, table.rows());
      const float* src = table.value().row(id);
      for (int c = 0; c < d; ++c) o[c] += src[c];
    }
    const float inv = 1.f / static_cast<float>(ids.size());
    for (int c = 0; c < d; ++c) o[c] *= inv;
  }
  return MakeOpNode("SegmentMeanRows", std::move(out), {table}, [table, lists, n, d](Node* self) {
    Matrix dt(table.rows(), d);
    for (int i = 0; i < n; ++i) {
      const std::vector<int>& ids = (*lists)[i];
      if (ids.empty()) continue;
      const float inv = 1.f / static_cast<float>(ids.size());
      const float* g = self->grad.row(i);
      for (int id : ids) {
        float* dr = dt.row(id);
        for (int c = 0; c < d; ++c) dr[c] += g[c] * inv;
      }
    }
    table.raw()->AccumulateGrad(std::move(dt));
  });
}

Tensor SpMM(std::shared_ptr<const CsrMatrix> a, const Tensor& x) {
  NMCDR_CHECK(a != nullptr);
  if (MetaEnabled()) return MetaOp("SpMM", {x}, {{a->rows(), a->cols()}});
  NMCDR_OBS_OP_SCOPE("SpMM");
  if (OpStreamHandler* hdl = ActiveOpStream()) {
    Tensor strm_out;
    if (hdl->OnSpMM(a, x, &strm_out)) return strm_out;
  }
  return MakeOpNode("SpMM", a->Multiply(x.value()), {x}, [a, x](Node* self) {
    x.raw()->AccumulateGrad(a->MultiplyTransposed(self->grad));
  });
}

Tensor Sum(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Sum", {a});
  NMCDR_OBS_OP_SCOPE("Sum");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSum, &a);
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Sum();
  return MakeOpNode("Sum", std::move(out), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(
        Matrix(a.rows(), a.cols(), self->grad.At(0, 0)));
  });
}

Tensor Mean(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("Mean", {a});
  NMCDR_OBS_OP_SCOPE("Mean");
  NMCDR_OP_STREAM_ENTRY(OpKind::kMean, &a);
  const float inv = 1.f / static_cast<float>(a.value().size());
  Matrix out(1, 1);
  out.At(0, 0) = a.value().Sum() * inv;
  return MakeOpNode("Mean", std::move(out), {a}, [a, inv](Node* self) {
    a.raw()->AccumulateGrad(
        Matrix(a.rows(), a.cols(), self->grad.At(0, 0) * inv));
  });
}

Tensor SumSquares(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("SumSquares", {a});
  NMCDR_OBS_OP_SCOPE("SumSquares");
  NMCDR_OP_STREAM_ENTRY(OpKind::kSumSquares, &a);
  Matrix out(1, 1);
  double acc = 0.0;
  for (int i = 0; i < a.value().size(); ++i) {
    const float v = a.value().data()[i];
    acc += static_cast<double>(v) * v;
  }
  out.At(0, 0) = static_cast<float>(acc);
  return MakeOpNode("SumSquares", std::move(out), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(k::Scale(a.value(), 2.f * self->grad.At(0, 0)));
  });
}

Tensor ColMean(const Tensor& a) {
  if (MetaEnabled()) return MetaOp("ColMean", {a});
  NMCDR_OBS_OP_SCOPE("ColMean");
  NMCDR_OP_STREAM_ENTRY(OpKind::kColMean, &a);
  NMCDR_CHECK_GT(a.rows(), 0);
  const float inv = 1.f / static_cast<float>(a.rows());
  return MakeOpNode("ColMean", k::ColMean(a.value()), {a}, [a, inv](Node* self) {
    Matrix da = Matrix::ForOverwrite(a.rows(), a.cols());
    const float* g = self->grad.row(0);
    for (int r = 0; r < a.rows(); ++r) {
      float* dr = da.row(r);
      for (int c = 0; c < a.cols(); ++c) dr[c] = g[c] * inv;
    }
    a.raw()->AccumulateGrad(std::move(da));
  });
}

Tensor TileRows(const Tensor& a, int n) {
  if (MetaEnabled()) return MetaOp("TileRows", {a}, {{n}});
  NMCDR_OBS_OP_SCOPE("TileRows");
  NMCDR_OP_STREAM_ENTRY(OpKind::kTileRows, &a);
  NMCDR_CHECK_EQ(a.rows(), 1);
  NMCDR_CHECK_GT(n, 0);
  Matrix out = Matrix::ForOverwrite(n, a.cols());
  for (int r = 0; r < n; ++r) {
    const float* src = a.value().row(0);
    float* dst = out.row(r);
    for (int c = 0; c < a.cols(); ++c) dst[c] = src[c];
  }
  return MakeOpNode("TileRows", std::move(out), {a}, [a](Node* self) {
    a.raw()->AccumulateGrad(k::ColSum(self->grad));
  });
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  if (MetaEnabled()) return MetaOp("RowDot", {a, b});
  NMCDR_OBS_OP_SCOPE("RowDot");
  NMCDR_OP_STREAM_ENTRY(OpKind::kRowDot, &a, &b);
  return MakeOpNode("RowDot",
      k::RowDot(a.value(), b.value()), {a, b}, [a, b](Node* self) {
        Matrix da = Matrix::ForOverwrite(a.rows(), a.cols());
        Matrix db = Matrix::ForOverwrite(b.rows(), b.cols());
        for (int r = 0; r < a.rows(); ++r) {
          const float g = self->grad.At(r, 0);
          const float* ar = a.value().row(r);
          const float* br = b.value().row(r);
          float* dar = da.row(r);
          float* dbr = db.row(r);
          for (int c = 0; c < a.cols(); ++c) {
            dar[c] = g * br[c];
            dbr[c] = g * ar[c];
          }
        }
        a.raw()->AccumulateGrad(std::move(da));
        b.raw()->AccumulateGrad(std::move(db));
      });
}

Tensor ScaleRows(const Tensor& a, const Tensor& s) {
  if (MetaEnabled()) return MetaOp("ScaleRows", {a, s});
  NMCDR_OBS_OP_SCOPE("ScaleRows");
  NMCDR_OP_STREAM_ENTRY(OpKind::kScaleRows, &a, &s);
  NMCDR_CHECK_EQ(s.cols(), 1);
  NMCDR_CHECK_EQ(s.rows(), a.rows());
  Matrix out = Matrix::ForOverwrite(a.rows(), a.cols());
  for (int r = 0; r < a.rows(); ++r) {
    const float sv = s.value().At(r, 0);
    const float* ar = a.value().row(r);
    float* o = out.row(r);
    for (int c = 0; c < a.cols(); ++c) o[c] = sv * ar[c];
  }
  return MakeOpNode("ScaleRows", std::move(out), {a, s}, [a, s](Node* self) {
    Matrix da = Matrix::ForOverwrite(a.rows(), a.cols());
    Matrix ds = Matrix::ForOverwrite(s.rows(), 1);
    for (int r = 0; r < a.rows(); ++r) {
      const float sv = s.value().At(r, 0);
      const float* g = self->grad.row(r);
      const float* ar = a.value().row(r);
      float* dar = da.row(r);
      double acc = 0.0;
      for (int c = 0; c < a.cols(); ++c) {
        dar[c] = g[c] * sv;
        acc += static_cast<double>(g[c]) * ar[c];
      }
      ds.At(r, 0) = static_cast<float>(acc);
    }
    a.raw()->AccumulateGrad(std::move(da));
    s.raw()->AccumulateGrad(std::move(ds));
  });
}

Tensor BceWithLogits(const Tensor& logits, const std::vector<float>& labels) {
  if (MetaEnabled()) {
    return MetaOp("BceWithLogits", {logits},
                  {{static_cast<int64_t>(labels.size())}});
  }
  NMCDR_OBS_OP_SCOPE("BceWithLogits");
  NMCDR_OP_STREAM_ENTRY(OpKind::kBceWithLogits, &logits);
  NMCDR_CHECK_EQ(logits.cols(), 1);
  NMCDR_CHECK_EQ(logits.rows(), static_cast<int>(labels.size()));
  const int n = logits.rows();
  NMCDR_CHECK_GT(n, 0);
  // loss_i = max(z,0) - z*y + log(1 + exp(-|z|))   (stable BCE-with-logits)
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const float z = logits.value().At(i, 0);
    const float y = labels[i];
    total += (z > 0.f ? z : 0.f) - z * y + std::log1p(std::exp(-std::fabs(z)));
  }
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(total / n);
  return MakeOpNode("BceWithLogits", std::move(out), {logits}, [logits, labels, n](Node* self) {
    const float g = self->grad.At(0, 0) / static_cast<float>(n);
    Matrix dz = Matrix::ForOverwrite(n, 1);
    Matrix p = k::Sigmoid(logits.value());
    for (int i = 0; i < n; ++i) dz.At(i, 0) = g * (p.At(i, 0) - labels[i]);
    logits.raw()->AccumulateGrad(std::move(dz));
  });
}

Tensor BprLoss(const Tensor& pos_scores, const Tensor& neg_scores) {
  if (MetaEnabled()) return MetaOp("BprLoss", {pos_scores, neg_scores});
  NMCDR_OBS_OP_SCOPE("BprLoss");
  NMCDR_OP_STREAM_ENTRY(OpKind::kBprLoss, &pos_scores, &neg_scores);
  NMCDR_CHECK_EQ(pos_scores.cols(), 1);
  NMCDR_CHECK(pos_scores.value().SameShape(neg_scores.value()));
  const int n = pos_scores.rows();
  NMCDR_CHECK_GT(n, 0);
  // loss = mean( softplus(-(pos - neg)) ) = mean( -log sigmoid(pos - neg) )
  double total = 0.0;
  for (int i = 0; i < n; ++i) {
    const float d = pos_scores.value().At(i, 0) - neg_scores.value().At(i, 0);
    total += (d < 0.f ? -d : 0.f) + std::log1p(std::exp(-std::fabs(d)));
  }
  Matrix out(1, 1);
  out.At(0, 0) = static_cast<float>(total / n);
  return MakeOpNode("BprLoss",
      std::move(out), {pos_scores, neg_scores},
      [pos_scores, neg_scores, n](Node* self) {
        const float g = self->grad.At(0, 0) / static_cast<float>(n);
        Matrix dpos = Matrix::ForOverwrite(n, 1);
        Matrix dneg = Matrix::ForOverwrite(n, 1);
        for (int i = 0; i < n; ++i) {
          const float d =
              pos_scores.value().At(i, 0) - neg_scores.value().At(i, 0);
          // d/dd softplus(-d) = -sigmoid(-d)
          const float s = d >= 0.f ? std::exp(-d) / (1.f + std::exp(-d))
                                   : 1.f / (1.f + std::exp(d));
          dpos.At(i, 0) = -g * s;
          dneg.At(i, 0) = g * s;
        }
        pos_scores.raw()->AccumulateGrad(std::move(dpos));
        neg_scores.raw()->AccumulateGrad(std::move(dneg));
      });
}

Tensor NeighborAttention(
    const Tensor& users, const Tensor& items,
    std::shared_ptr<const std::vector<std::vector<int>>> candidates) {
  NMCDR_CHECK(candidates != nullptr);
  if (MetaEnabled()) {
    return MetaOp("NeighborAttention", {users, items},
                  ListBoundsAttrs(*candidates));
  }
  NMCDR_OBS_OP_SCOPE("NeighborAttention");
  NMCDR_OP_STREAM_ENTRY(OpKind::kNeighborAttention, &users, &items);
  NMCDR_CHECK_EQ(static_cast<int>(candidates->size()), users.rows());
  NMCDR_CHECK_EQ(users.cols(), items.cols());
  const Matrix& v = items.value();
  // Every candidate id is checked once, up front, so the attention core
  // runs no checks; the same pass sizes the flat per-call weight buffer.
  int total = 0;
  for (const std::vector<int>& cand : *candidates) {
    for (const int id : cand) {
      NMCDR_CHECK_GE(id, 0);
      NMCDR_CHECK_LT(id, v.rows());
    }
    total += static_cast<int>(cand.size());
  }

  // Forward: per-user softmax attention over candidate items. alpha holds
  // every user's weights back to back (arena storage on the replay path)
  // and moves into the backward closure.
  Matrix alpha = Matrix::ForOverwrite(1, total);
  Matrix out = Matrix::ForOverwrite(users.rows(), users.cols());
  VectorNeighborAttentionForward(users.value(), v, *candidates, alpha.data(),
                                 &out);

  return MakeOpNode("NeighborAttention",
      std::move(out), {users, items},
      [users, items, candidates, alpha = std::move(alpha)](Node* self) {
        const Matrix& u = users.value();
        const Matrix& v = items.value();
        Matrix ds = Matrix::ForOverwrite(1, alpha.cols());
        Matrix du = Matrix::ForOverwrite(u.rows(), u.cols());
        Matrix dv(v.rows(), v.cols());
        VectorNeighborAttentionBackward(u, v, *candidates, alpha.data(),
                                        self->grad, ds.data(), &du, &dv);
        users.raw()->AccumulateGrad(std::move(du));
        items.raw()->AccumulateGrad(std::move(dv));
      });
}

}  // namespace ag
}  // namespace nmcdr

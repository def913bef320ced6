"""Greedy layer-wise pretraining followed by backprop fine-tuning.

Shows the two-stage recipe: stack RBM-initialized layers, bolt on a softmax
output layer, then refine everything with cross-entropy backpropagation.
The error after fine-tuning should land clearly below the pretrain-only
error.
"""

from dataclasses import replace

import boltznet as bn
from boltznet import dnn, rbm
from boltznet.core import LossKind
from boltznet.data import make_batches, one_of_k, shuffle_paired
from boltznet.synth import make_digit_corpus

train_x, train_y, test_x, test_y = make_digit_corpus(4000, 800, seed=1)
onehot = one_of_k(train_y, 10)
train_x, onehot = shuffle_paired(train_x, onehot, bn.make_rng(0))
batches = make_batches(train_x, onehot, 80)

cfg = bn.TrainConfig(epochs=4, lr=0.1, seed=0)
sizes = [784, 300, 200, 100, 10]

print(f"pretraining a {'-'.join(map(str, sizes))} stack...")
stack = dnn.pretrain_stack(sizes, batches, cfg)

# the output layer is trained on the top-layer features before fine-tuning
feats = dnn.hidden_features(stack, batches)
rbm.train_classifier_head(stack.layers[-1], feats, cfg)
pre = bn.classify(dnn.predict(stack, test_x), test_y)
print(f"pretrain-only test error: {pre.error_rate:.4f}")

print("fine-tuning with backpropagation (12 epochs)...")
dnn.backprop_fine_tune(stack, batches, LossKind.CROSS_ENTROPY,
                       replace(cfg, epochs=12),
                       hook=lambda e, lr, rho: print(f"  epoch {e} done"))
post = bn.classify(dnn.predict(stack, test_x), test_y)
print(f"fine-tuned test error:   {post.error_rate:.4f}")
print(f"improvement: {pre.error_rate - post.error_rate:+.4f}")

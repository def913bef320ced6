"""Deep belief network: label-joined top RBM, zero-clamped classification,
and wake-sleep (up-down) fine-tuning.

The top RBM models the joint of the deepest features and the one-of-K
labels. Classification fills the label slots with zeros, takes one up-down
step of the top RBM, and reads the reconstructed label slots.
"""

import boltznet as bn
from boltznet import dbn
from boltznet.data import make_batches, one_of_k, shuffle_paired
from boltznet.optim import NO_MOMENTUM
from boltznet.synth import make_digit_corpus

train_x, train_y, test_x, test_y = make_digit_corpus(4000, 800, seed=1)
onehot = one_of_k(train_y, 10)
train_x, onehot = shuffle_paired(train_x, onehot, bn.make_rng(0))
batches = make_batches(train_x, onehot, 80)

# sizes list the data and hidden widths; with labels=True each batch's 10
# label slots join the top RBM's visible side
print("pretraining a 784-300-200 DBN with a label-joined top RBM...")
model = dbn.pretrain_dbn([784, 300, 200], batches,
                         bn.TrainConfig(epochs=2, lr=0.1, seed=0), labels=True)
print(f"top RBM visible width: {model.top.n_v} (= 300 features + 10 labels)")

pre = bn.classify(dbn.predict_dbn(model, test_x), test_y)
print(f"pretrain-only test error: {pre.error_rate:.4f}")

print("up-down fine-tuning (wake-sleep + CD at the top, 5 epochs)...")
dbn.up_down_fine_tune(model, batches,
                      bn.TrainConfig(epochs=5, lr=0.02, seed=1,
                                     momentum=NO_MOMENTUM))
post = bn.classify(dbn.predict_dbn(model, test_x), test_y)
print(f"fine-tuned test error:    {post.error_rate:.4f}")

# recognition and generative weights untie during fine-tuning
import numpy as np

tied = np.allclose(model.recognition[0].w.T, model.generative_w[0])
print(f"recognition/generative weights still tied? {tied}")

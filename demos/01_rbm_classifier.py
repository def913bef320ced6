"""Train a restricted Boltzmann machine on synthetic digit images, stack a
softmax classifier head on its hidden layer, and score the test split.

Run from the repository root:  python demos/01_rbm_classifier.py
"""

import numpy as np

import boltznet as bn
from boltznet import dnn, rbm
from boltznet.data import make_batches, one_of_k, shuffle_paired
from boltznet.synth import make_digit_corpus

# a 28x28 corpus shaped like MNIST, light enough for a quick demo
train_x, train_y, test_x, test_y = make_digit_corpus(3000, 600, seed=1)
onehot = one_of_k(train_y, 10)
train_x, onehot = shuffle_paired(train_x, onehot, bn.make_rng(0))
batches = make_batches(train_x, onehot, 60)

cfg = bn.TrainConfig(epochs=6, lr=0.1, dropout_rate=0.2, seed=0)

# unsupervised feature learning: contrastive divergence with dropout
rng = bn.make_rng(0)
layer = rbm.RbmLayer.random(784, 500, rng)
print("training the RBM (CD-1, dropout 0.2)...")
rbm.train_binary(layer, batches, cfg,
                 hook=lambda e, lr, rho: print(
                     f"  epoch {e}: lr={lr:.3f} rho={rho:.1f} "
                     f"mean free energy={rbm.mean_free_energy(layer, train_x[:500]):.2f}"))

# supervised head: softmax cross-entropy on the hidden probabilities
head = rbm.RbmLayer.random(500, 10, rng, activation=bn.ActivationKind.SOFTMAX)
feats = [(rbm.hidden_given_visible(layer, x), y) for x, y in batches]
print("training the classifier head...")
rbm.train_classifier_head(head, feats, cfg)

# the classifier is the stack [RBM, head]; the class is each row's argmax
report = bn.classify(dnn.predict(dnn.LayerStack([layer, head]), test_x), test_y)
print(f"\ntest error rate: {report.error_rate:.4f} on {report.n_samples} samples")
print("confusion row sums (true-class counts):", report.confusion.sum(axis=1))

"""Deep Boltzmann machine: adjusted-weight pretraining, then persistent-chain
stochastic approximation guided by mean-field inference.

Pretraining doubles the first RBM's upward weights and the last RBM's
downward weights (and halves stored intermediate weights) so each stacked
RBM approximates its share of the undirected model. Training alternates a
mean-field settle on the data, one Gibbs sweep on the fantasy chains, and a
single parameter update per iteration.
"""

import numpy as np

import boltznet as bn
from boltznet import dbm
from boltznet.data import make_batches, one_of_k, shuffle_paired
from boltznet.optim import NO_MOMENTUM
from boltznet.synth import make_digit_corpus

train_x, train_y, test_x, test_y = make_digit_corpus(2000, 500, seed=1)
onehot = one_of_k(train_y, 10)
train_x, onehot = shuffle_paired(train_x, onehot, bn.make_rng(0))
batches = make_batches(train_x, onehot, 80)

print("pretraining a 784-300-300 DBM (labels join the top layer)...")
model = dbm.pretrain_dbm([784, 300, 300], batches,
                         bn.TrainConfig(epochs=2, lr=0.05, seed=0), labels=True)
print(f"persistent chains: {len(model.chains[0])} (one per batch)")

# sanity: with zero weights the mean-field fixed point is exactly 0.5
zero = dbm.DbmModel(weights=[np.zeros((4, 3)), np.zeros((3, 2))],
                    visible_bias=np.zeros((1, 4)),
                    hidden_biases=[np.zeros((1, 3)), np.zeros((1, 2))])
mus, _ = dbm.mean_field_states(zero, np.zeros((2, 4)))
print("zero-weight mean-field fixed point is 0.5 everywhere:",
      all(np.all(m == 0.5) for m in mus))

pre = bn.classify(dbm.predict_dbm(model, test_x), test_y)
print(f"pretrain-only accuracy: {1 - pre.error_rate:.4f}")

print("mean-field training (25 iterations, step-annealed rate)...")
dbm.mean_field_train(model, batches,
                     bn.TrainConfig(epochs=25, lr=0.004, seed=1,
                                    momentum=NO_MOMENTUM),
                     hook=lambda t, a, _: print(f"  iteration {t}: alpha={a:.5f}")
                     if t % 5 == 0 else None)
post = bn.classify(dbm.predict_dbm(model, test_x), test_y)
print(f"trained accuracy:       {1 - post.error_rate:.4f}")

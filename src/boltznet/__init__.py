"""Energy-based deep learning toolkit built on numpy.

Models: restricted Boltzmann machines (binary, linear, and softmax-head
classifier), deep neural networks with greedy RBM pretraining and backprop
fine-tuning, deep belief networks with wake-sleep fine-tuning, denoising
autoencoders, deep Boltzmann machines with mean-field training, and a
bimodal autoencoder for cross-modal prediction. A brute-force enumeration
oracle backs the test suite, and the `boltznet` command reproduces the
experiments at desk scale.
"""

from .core import (ActivationKind, ClassificationReport, ConfigError, DomainError,
                   LossKind, Matrix, Rng, ShapeError, activate,
                   activation_derivative, classify, loss, loss_derivative, make_rng,
                   matrix, sample_bernoulli)
from .optim import (AnnealKind, AnnealSchedule, DecayKind, MomentumSchedule,
                    WeightDecaySpec, anneal, apply_update, decay_penalty_gradient,
                    dropout_mask, momentum_coeff)
from .rbm import (CdGradients, RbmLayer, TrainConfig, cd_step, energy, free_energy,
                  hidden_given_visible, train_binary, train_classifier_head,
                  train_linear, visible_given_hidden)
from .dnn import LayerStack, backprop_fine_tune, forward, pretrain_stack
from .dbn import DbnModel, predict_dbn, pretrain_dbn, up_down_fine_tune
from .autoencoder import (AeModel, build_symmetric, corrupt, fine_tune_mse,
                          reconstruct, reconstruction_error)
from .dbm import (DbmModel, dbm_energy, mean_field_states, mean_field_train,
                  predict_dbm, pretrain_dbm)
from .multimodal import BimodalAe, build_bimodal, modal_error_rate, predict_modal
from .data import (FormatError, make_batches, one_of_k, read_cifar10, read_f32be_matrix,
                   read_mnist_images, read_mnist_labels, shuffle_paired)
from .model_io import load_model, save_model

__version__ = "0.1.0"

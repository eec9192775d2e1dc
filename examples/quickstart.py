"""Quickstart: train a mixed-precision quantized model with CSQ.

This example converts a small convolutional classifier to CSQ layers, trains
it with the budget-aware regularizer towards an average of 3 bits per weight,
freezes the gates, and prints the discovered mixed-precision scheme together
with the compression ratio and test accuracy.

Run with:  python examples/quickstart.py
Runtime:   well under a minute on a laptop CPU.
"""

from repro.csq import CSQConfig, CSQTrainer
from repro.data import DataLoader, cifar10_like
from repro.models import SimpleConvNet
from repro.utils import seed_everything


def main() -> None:
    seed_everything(0)

    # 1. Data: a small synthetic CIFAR-10 stand-in (see repro.data.synthetic).
    train_set = cifar10_like(train=True, train_size=400, test_size=160, image_size=12)
    test_set = cifar10_like(train=False, train_size=400, test_size=160, image_size=12)
    train_loader = DataLoader(train_set, batch_size=40, shuffle=True)
    test_loader = DataLoader(test_set, batch_size=80)

    # 2. Model: any float model built from repro.nn layers works.  A short
    #    float warm-up replaces the long from-scratch schedule of the paper
    #    so the example finishes quickly (benchmarks/common.py does the same).
    from repro.optim import SGD, WarmupCosine
    from repro.training import fit

    model = SimpleConvNet(num_classes=10, width=8)
    optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9, weight_decay=5e-4)
    fit(model, train_loader, test_loader, optimizer, epochs=5,
        scheduler=WarmupCosine(optimizer, total_epochs=5))

    # 3. CSQ: convert, train with a 3-bit average budget, freeze.
    config = CSQConfig(
        epochs=8,             # the paper uses 600 epochs on CIFAR-10; scaled down here
        target_bits=3.0,      # the "T3" budget of the paper's tables
        act_bits=32,          # keep activations in floating point
        lr=0.05,
        rep_lr_scale=4.0,     # offsets the gate Jacobian's damping on a short schedule
        mask_lr_scale=0.5,
        weight_decay=0.0,
    )
    trainer = CSQTrainer(model, train_loader, test_loader, config)
    trainer.train()

    # 4. Inspect the result.
    scheme = trainer.scheme()
    metrics = trainer.evaluate()
    print("\nDiscovered mixed-precision scheme:")
    print(scheme.summary())
    print(f"\naverage precision : {scheme.average_precision:.2f} bits (target {config.target_bits})")
    print(f"compression       : {scheme.compression_ratio:.2f}x vs FP32")
    print(f"test accuracy     : {100 * metrics['accuracy']:.2f}%")
    print("precision per epoch:", [round(p, 2) for p in trainer.precision_trajectory()])


if __name__ == "__main__":
    main()
